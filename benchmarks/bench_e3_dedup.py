"""E3 -- early duplicate elimination at pipeline breaks (Section 9).

    "the Glue assignment statements that we have examined have produced a
    large number of duplicates, so removing duplicates early has always
    been advantageous.  However, in the worst case pipeline breakage
    [with duplicate elimination] is a loss."

Workload: a projection-heavy prefix multiplies each binding F^2 times, an
update subgoal breaks the pipeline, and a join runs *after* the break.
Deduplicating at the break shrinks everything downstream; on a
duplicate-free body the dedup pass finds nothing and is pure overhead
(visible in wall time, not in tuple touches).
"""

import pytest

from benchmarks._workloads import print_series, system_with

# pairs(X,_) twice projects away the payload: F^2 copies of each X reach
# the update (a break); the join with big/2 then runs per surviving copy.
SOURCE = "out(X, Y) := pairs(X, _) & pairs(X, _) & ++probe(X) & big(X, Y)."


def make_facts(keys, fanout, big_fanout=8):
    return {
        "pairs": [(k, i) for k in range(keys) for i in range(fanout)],
        "big": [(k, 1000 + j) for k in range(keys) for j in range(big_fanout)],
    }


def run(dedup, keys, fanout):
    system = system_with(SOURCE, make_facts(keys, fanout), keep_duplicates=not dedup)
    system.run_script()
    return system


@pytest.mark.parametrize("dedup", [True, False])
def test_duplicate_heavy(benchmark, dedup):
    system = benchmark(run, dedup, 20, 8)
    assert len(system.rows("out", 2)) == 20 * 8


def test_shape_dedup_wins_on_duplicates_loses_without(benchmark):
    rows = []
    # Duplicate-heavy: fanout 8 -> 64 copies per key at the break.
    heavy_on = run(True, 20, 8).counters.total_tuple_touches
    heavy_off = run(False, 20, 8).counters.total_tuple_touches
    # Duplicate-free: fanout 1 -> nothing to remove; dedup is overhead.
    lean_on_sys = run(True, 150, 1)
    lean_off_sys = run(False, 150, 1)
    rows.append(
        ("fanout=8 (dup-heavy)", heavy_on, heavy_off,
         "dedup" if heavy_on < heavy_off else "no-dedup")
    )
    rows.append(
        ("fanout=1 (dup-free)",
         lean_on_sys.counters.total_tuple_touches,
         lean_off_sys.counters.total_tuple_touches,
         "tie (dedup pays a pass for nothing)")
    )
    print_series(
        "E3: early duplicate elimination at breaks (total tuple touches)",
        ("workload", "dedup on", "dedup off", "winner"),
        rows,
    )
    # Who wins: dedup by a wide margin on the duplicate-heavy body...
    assert heavy_on * 2 < heavy_off, "dedup should win big on duplicates"
    # ...and exactly nothing to remove on the duplicate-free one.
    assert lean_on_sys.counters.dedup_removed == 0
    assert (
        lean_on_sys.counters.total_tuple_touches
        == lean_off_sys.counters.total_tuple_touches
    )
    # Results identical either way.
    assert (
        run(True, 20, 8).rows("out", 2)
        == run(False, 20, 8).rows("out", 2)
    )
    benchmark(run, True, 20, 8)
