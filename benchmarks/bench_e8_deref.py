"""E8 -- compile-time predicate dereferencing vs. run-time dispatch
(Section 9).

    "A naive system would wait until X becomes bound at run time, and then
    check it against the four possible cases.  The current compiler will
    have already eliminated those choices which were seen to be impossible
    at compile time.  Procedure calls are expensive, so it is very
    important to identify at compile time those subgoals which cannot
    possibly be procedure calls."

Expected shape: with compile-time dereferencing the predicate-variable
subgoal streams through the pipeline (no break, no per-row class check);
the run-time-dispatch baseline breaks the pipeline and re-dispatches per
row, and its penalty grows with the number of rows flowing through.
"""

import pytest

from benchmarks._workloads import print_series
from repro.baselines.reference import reference_system
from repro.terms.term import Atom

SOURCE = """
proc members(S:X)
  return(S:X) := in(S) & S(X).
end
proc fanout(:Name, X)
  return(:Name, X) := listing(Name) & Name(X).
end
"""


def build(deref: bool, rows: int):
    system = reference_system(runtime_dispatch=not deref)
    system.load(SOURCE)
    sets = ["reds", "blues", "greens", "cyans"]
    system.facts("listing", [(s,) for s in sets])
    for name in sets:
        system.facts(name, [(f"{name}_{i}",) for i in range(rows)])
    system.compile()
    system.reset_counters()
    return system


def run_fanout(deref: bool, rows: int):
    system = build(deref, rows)
    out = system.call("fanout")
    return system, out


@pytest.mark.parametrize("deref", [True, False])
def test_fanout(benchmark, deref):
    system, out = benchmark(run_fanout, deref, 100)
    assert len(out) == 400


def test_shape_deref_eliminates_runtime_checks(benchmark):
    """The currency of the paper's claim is run-time class checks: the
    compile-time path does zero per-row dispatches; the naive path does
    one per binding of the predicate variable (and breaks the pipeline)."""
    rows_table = []
    for rows in (50, 200):
        fast_system, fast_out = run_fanout(True, rows)
        slow_system, slow_out = run_fanout(False, rows)
        assert sorted(map(str, fast_out)) == sorted(map(str, slow_out))
        rows_table.append(
            (
                rows,
                fast_system.counters.dynamic_dispatches,
                slow_system.counters.dynamic_dispatches,
                fast_system.counters.pipeline_breaks,
                slow_system.counters.pipeline_breaks,
            )
        )
    print_series(
        "E8: compile-time dereferencing vs run-time dispatch",
        ("rows/set", "checks (deref)", "checks (dispatch)",
         "breaks (deref)", "breaks (dispatch)"),
        rows_table,
    )
    fast_system, _ = run_fanout(True, 100)
    slow_system, _ = run_fanout(False, 100)
    assert fast_system.counters.dynamic_dispatches == 0
    assert slow_system.counters.dynamic_dispatches >= 4  # one per set name
    assert fast_system.counters.pipeline_breaks < slow_system.counters.pipeline_breaks
    benchmark(run_fanout, True, 100)
