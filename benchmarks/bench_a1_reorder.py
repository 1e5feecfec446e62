"""A1 (ablation) -- the subgoal-reordering optimizer (Section 3.1).

    "A Glue system is free to reorder the non-fixed subgoals..."

DESIGN.md calls the optimizer out as a design choice worth ablating: the
bench runs bodies written in a deliberately bad order with the cost planner
and in written order (``reference_system(written_order=True)``),
asserting identical answers and measuring the scanning saved by hoisting
evaluable filters and most-bound scans.
"""

import pytest

from benchmarks._workloads import print_series, system_with

# A body written worst-first: the big blind scan leads, the selective
# filter and the bound probe trail.
SOURCE = "out(X, Y) := wide(W, Z) & narrow(X) & X < 3 & probe(X, Y) & Y = Z."


def make_facts(n):
    return {
        "wide": [(i, i % 7) for i in range(n)],
        "narrow": [(i,) for i in range(10)],
        "probe": [(i, i % 7) for i in range(10)],
    }


def run(order_mode, n):
    system = system_with(SOURCE, make_facts(n), written_order=order_mode == "program")
    system.run_script()
    return system


@pytest.mark.parametrize("order_mode", ["cost", "program"])
def test_bad_order_body(benchmark, order_mode):
    system = benchmark(run, order_mode, 300)
    assert system.rows("out", 2)


def test_shape_optimizer_cuts_scanning(benchmark):
    rows = []
    for n in (100, 400):
        on = run("cost", n)
        off = run("program", n)
        assert on.rows("out", 2) == off.rows("out", 2)
        rows.append(
            (n, on.counters.tuples_scanned, off.counters.tuples_scanned,
             f"{off.counters.tuples_scanned / max(on.counters.tuples_scanned, 1):.1f}x")
        )
    print_series(
        "A1: subgoal reordering ablation (tuples scanned, same answers)",
        ("wide rows", "cost order", "program order", "program/cost"),
        rows,
    )
    on_cost = run("cost", 400).counters.tuples_scanned
    off_cost = run("program", 400).counters.tuples_scanned
    assert on_cost < off_cost
    benchmark(run, "cost", 300)
