"""A2 (ablation) -- run-time re-planning of statements compiled blind
(Section 10).

    "Because Glue programs create and update many relations at run-time,
    queries involving those relations are difficult to optimize at
    compile-time. ... the back end will employ adaptive optimization
    techniques that select appropriate storage structures and access
    methods at run-time based on changing properties of the database and
    patterns of access."

The adaptive-index policy (E5) covers access methods; this ablation covers
*join order*.  The compiler marks a statement for re-planning only when the
cost planner had no size for some relation it scans; the machine then
plans it by live sizes through the program's plan cache, once per size
bucket, and compiles a variant when the planned order differs.
Two shapes the compiler cannot see, each body written big-first:

* ``loaded after compile`` -- the program compiles before its relations
  load.  Compiling the same program after the load shows the run-time
  plan reaches the plan the compiler picks when it can see the sizes.
* ``+= in repeat`` -- a procedure local filled by ``+=`` inside ``repeat``
  and then joined; no compile-time estimate exists for it.

The baseline is the written order (``reference_system(written_order=True)``).  Work is
``tuples_scanned + index_probe_tuples``.
"""

from benchmarks._workloads import print_series
from repro.baselines.reference import reference_system

LOADED = "out(X, Y) := big(X, V) & small(V, Y)."

REPEAT = """
proc pick(:X, Y)
rels hot(V);
  repeat
    hot(V) += seed(V).
  until unchanged(hot(_));
  return(:X, Y) := big(X, V) & hot(V) & label(V, Y).
end
"""


def big_rows(n):
    return [(i, i % 50) for i in range(n)]


def variants(system, stmt):
    """The compiled variants the plan cache holds for ``stmt``."""
    return [
        entry.built
        for entry in system.compile().plans.entries()
        if entry.body is stmt.replan.body and entry.built is not stmt
    ]


def work(system):
    counters = system.counters
    return counters.tuples_scanned + counters.index_probe_tuples


def run_loaded(big_n, written_order=False, compile_first=True):
    """Returns (rows, work, the compiled statement, the system)."""
    system = reference_system(written_order=written_order)
    system.load(LOADED)
    if compile_first:
        system.compile()
    system.facts("big", big_rows(big_n))
    system.facts("small", [(3, "hit"), (7, "hit2")])
    (stmt,) = system.compile().script
    system.reset_counters()
    system.run_script()
    return system.rows("out", 2), work(system), stmt, system


def run_repeat(big_n, written_order=False):
    """Returns (rows, work, the compiled return statement, the system)."""
    system = reference_system(written_order=written_order)
    system.load(REPEAT)
    system.facts("big", big_rows(big_n))
    system.facts("seed", [(3,), (7,)])
    system.facts("label", [(v, f"l{v}") for v in range(50)])
    stmt = system.compile().find_proc("pick", 2).body[-1]
    system.reset_counters()
    rows = sorted(system.call("pick").to_python())
    return rows, work(system), stmt, system


def test_bad_static_order(benchmark):
    rows, _work, _stmt, _system = benchmark(run_loaded, 2000)
    assert rows


def test_shape_runtime_sizes_beat_static_guess(benchmark):
    table = []
    for big_n in (500, 2000, 8000):
        written_rows, written, _, _ = run_loaded(big_n, written_order=True)
        blind_rows, blind, stmt, system = run_loaded(big_n)
        sighted_rows, sighted, sighted_stmt, _ = run_loaded(big_n, compile_first=False)
        # Same answers; re-planning scans less than the written order and
        # reaches what the compiler picks with the sizes in view.
        assert blind_rows == written_rows == sighted_rows
        assert blind * 5 < written and blind == sighted
        assert len(variants(system, stmt)) == 1 and sighted_stmt.replan is None
        table.append(("loaded after compile", big_n, written, blind, sighted,
                      f"{written / blind:.1f}x"))

        written_rows, written, _, _ = run_repeat(big_n, written_order=True)
        blind_rows, blind, stmt, system = run_repeat(big_n)
        assert blind_rows == written_rows and len(blind_rows) == 2 * big_n // 50
        assert blind * 2 < written
        assert len(variants(system, stmt)) == 1
        table.append(("+= in repeat", big_n, written, blind, "-", f"{written / blind:.1f}x"))
    print_series(
        "A2: run-time re-planning (tuples scanned + index probe tuples, same rows)",
        ("shape", "big rows", "program order", "re-planned", "compiled sighted",
         "program/re-planned"),
        table,
    )
    # One compiled variant is cached, not one per execution.
    system = reference_system()
    system.load(LOADED)
    (stmt,) = system.compile().script
    system.facts("big", big_rows(2000))
    system.facts("small", [(3, "hit"), (7, "hit2")])
    system.run_script()
    system.run_script()
    assert len(variants(system, stmt)) == 1
    benchmark(run_repeat, 2000)
