"""E2 -- pipelined (nested-join) vs. materialized execution (Section 9).

    "We have used a pipelined (nested join) execution strategy ...
    Breaking the pipeline and materializing the supplementary relation
    incurs some computational overhead ... and costs an extra load and
    store for each tuple."

Expected shape: on a break-free join chain with a selective tail filter,
pipelining touches strictly fewer tuples (no intermediate stores); the
materialized strategy pays one load+store per tuple per step.
"""

import pytest

from benchmarks._workloads import print_series, system_with

SOURCE = "out(X, W) := a(X, Y) & b(Y, Z) & c(Z, W) & W = 0."


def make_facts(n):
    return {
        "a": [(i, i % 20) for i in range(n)],
        "b": [(i % 20, i % 10) for i in range(n)],
        "c": [(i % 10, i % 5) for i in range(n)],
    }


def run_chain(strategy, n):
    system = system_with(
        SOURCE, make_facts(n), materialized=strategy == "materialized", written_order=True
    )
    system.run_script()
    return system


@pytest.mark.parametrize("strategy", ["pipelined", "materialized"])
def test_join_chain(benchmark, strategy):
    result = benchmark(run_chain, strategy, 300)
    assert result.rows("out", 2)


def test_shape_pipelining_stores_less(benchmark):
    rows = []
    last = {}
    for n in (100, 300):
        stats = {}
        for strategy in ("pipelined", "materialized"):
            system = run_chain(strategy, n)
            stats[strategy] = system.counters.snapshot()
        rows.append(
            (
                n,
                stats["pipelined"]["materialized_tuples"],
                stats["materialized"]["materialized_tuples"],
                stats["pipelined"]["pipeline_breaks"],
            )
        )
        last = stats
    print_series(
        "E2: pipelined vs materialized (stored tuples; breaks=0 expected)",
        ("rows/rel", "pipelined stores", "materialized stores", "breaks"),
        rows,
    )
    assert last["pipelined"]["pipeline_breaks"] == 0
    assert (
        last["pipelined"]["materialized_tuples"]
        < last["materialized"]["materialized_tuples"]
    )
    # Identical answers.
    a = run_chain("pipelined", 200).rows("out", 2)
    b = run_chain("materialized", 200).rows("out", 2)
    assert a == b
    benchmark(run_chain, "pipelined", 200)
