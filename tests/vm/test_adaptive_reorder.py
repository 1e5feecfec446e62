"""Tests for run-time re-planning (paper Section 10).

    "Because Glue programs create and update many relations at run-time,
    queries involving those relations are difficult to optimize at
    compile-time."

The compiler marks a statement for re-planning when the cost planner
ordered it without the size of some relation it scans: a relation not yet
loaded, or a local it cannot size.  A marked statement is planned by live
sizes through the program's plan cache (``repro.opt.cache``): once per
size bucket, with a variant compiled when the planned order differs from
the compiled one.
"""

from repro.core.query import rows_to_python
from repro.storage.adaptive import NeverIndexPolicy
from repro.storage.database import Database
from tests.conftest import make_system

JOIN = "out(X, Y) := big(X, V) & small(V, Y)."

BIG = [(i, i % 50) for i in range(2000)]
SMALL = [(3, "hit"), (7, "hit2")]


def build(big_rows, small_rows, source=JOIN, index=True, compile_first=True, **kwargs):
    # Indexing off isolates the join-order effect: otherwise the adaptive
    # *index* policy largely rescues a bad order on its own.  Compiling
    # *before* the facts load keeps the compile-time planner blind to the
    # cardinalities -- re-planning at run time is then the only fix.
    db = None if index else Database(index_policy=NeverIndexPolicy())
    system = make_system(source, db=db, **kwargs)
    if compile_first:
        system.compile()
    system.facts("big", big_rows)
    system.facts("small", small_rows)
    system.reset_counters()
    return system


def variants(system, stmt):
    """The compiled variants the plan cache holds for ``stmt``, by order."""
    return {
        entry.plan.ordered_body: entry.built
        for entry in system.compile().plans.entries()
        if entry.body is stmt.replan.body and entry.built is not stmt
    }


def work(system) -> int:
    counters = system.counters
    return counters.tuples_scanned + counters.index_probe_tuples


class TestAdaptiveReorder:
    def test_same_results(self):
        for compile_first in (True, False):
            system = build(BIG, SMALL, compile_first=compile_first)
            system.run_script()
            rows = rows_to_python(system.rows("out", 2))
            assert len(rows) == 2 * (2000 // 50)

    def test_adaptive_scans_less_when_source_order_is_bad(self):
        # The body names the big relation first; at run time the small
        # relation is 1000x smaller, so the re-planned statement flips the
        # join.  Program order is the written order.
        written = build(BIG, SMALL, index=False, written_order=True)
        written.run_script()
        replanned = build(BIG, SMALL, index=False)
        replanned.run_script()
        assert rows_to_python(replanned.rows("out", 2)) == rows_to_python(
            written.rows("out", 2)
        )
        assert replanned.counters.tuples_scanned < written.counters.tuples_scanned * 0.75

    def test_variant_cached_across_executions(self):
        system = build(BIG, SMALL)
        (stmt,) = system.compile().script
        system.run_script()
        assert len(variants(system, stmt)) == 1
        misses = system.counters.plan_cache_misses
        system.run_script()
        assert len(variants(system, stmt)) == 1  # second run reuses the variant
        assert system.counters.plan_cache_misses == misses

    def test_no_variant_when_order_already_best(self):
        # Written small-first: the blind compile keeps the written order
        # (the scans tie), which is the order live sizes pick too.
        system = build(BIG, SMALL, source="out(X, Y) := small(V, Y) & big(X, V).")
        (stmt,) = system.compile().script
        assert stmt.replan is not None
        system.run_script()
        assert variants(system, stmt) == {}
        assert len(system.rows("out", 2)) == 2 * (2000 // 50)

    def test_statements_with_unchanged_not_adapted(self):
        # A variant would start a fresh ``unchanged`` history.
        system = make_system("out(X) := seed(X) & unchanged(seed(_)).")
        (stmt,) = system.compile().script
        assert stmt.replan is None

        system = make_system(
            """
            proc fix(:X)
            rels acc(V);
              repeat
                acc(X) += seed(X).
              until unchanged(acc(_));
              return(:X) := acc(X).
            end
            """
        )
        system.facts("seed", [(1,)])
        assert rows_to_python(system.call("fix")) == [(1,)]

    def test_adaptive_inside_procedures(self):
        system = make_system(
            """
            proc lookup(:X, Y)
              return(:X, Y) := big(X, V) & small(V, Y).
            end
            """
        )
        (proc,) = system.compile().procs.values()
        (stmt,) = proc.body
        assert stmt.replan is not None
        system.facts("big", BIG)
        system.facts("small", SMALL)
        rows = system.call("lookup")
        assert len(rows) == 2 * (2000 // 50)
        assert len(variants(system, stmt)) == 1

    def test_order_flips_when_sizes_flip(self):
        # Blind, the body compiles in its written order a, b, c.  Live
        # sizes first favour c, then b: the sizes move to new buckets, and
        # each planned order gets its own variant.
        system = make_system("out(X, Y) := a(X, V) & b(V, W) & c(W, Y).")
        (stmt,) = system.compile().script
        wide = [(i, i % 40) for i in range(400)]
        system.facts("a", wide)
        system.facts("b", [(i % 40, i % 20) for i in range(400)])
        system.facts("c", [(3, "x")])
        system.run_script()
        first = set(variants(system, stmt))
        assert len(first) == 1
        assert str(next(iter(first))[0].pred) == "c"

        system.db.get("b", 2).clear()
        system.db.get("c", 2).clear()
        system.facts("b", [(5, 3)])
        system.facts("c", [(i % 20, i) for i in range(400)])
        system.run_script()
        assert len(variants(system, stmt)) == 2
        (second,) = set(variants(system, stmt)) - first
        assert str(second[0].pred) == "b"
        assert sorted(rows_to_python(system.rows("out", 2))) == sorted(
            (x, y) for x, v in wide if v == 5 for y in range(3, 400, 20)
        )

    def test_plus_equals_local_in_repeat_replans(self):
        # hot/1 is filled by += inside repeat, so the compiler cannot size
        # it even though big/2 and label/2 are loaded: it plans big first.
        # At run time hot holds two rows and leads the join.
        source = """
        proc pick(:X, Y)
        rels hot(V);
          repeat
            hot(V) += seed(V).
          until unchanged(hot(_));
          return(:X, Y) := big(X, V) & hot(V) & label(V, Y).
        end
        """
        runs = {}
        for mode in ("cost", "program"):
            system = make_system(source, written_order=mode == "program")
            system.facts("big", BIG)
            system.facts("seed", [(3,), (7,)])
            system.facts("label", [(v, f"l{v}") for v in range(50)])
            proc = system.compile().find_proc("pick", 2)
            system.reset_counters()
            rows = sorted(rows_to_python(system.call("pick")))
            runs[mode] = (rows, work(system), system, proc.body[-1])
        (cost_rows, cost_work, system, stmt), (program_rows, program_work, _, _) = (
            runs["cost"], runs["program"],
        )
        assert cost_rows == program_rows and len(cost_rows) == 2 * (2000 // 50)
        assert stmt.replan is not None and len(variants(system, stmt)) == 1
        assert cost_work * 2 < program_work

    def test_procedure_compiled_after_load_not_marked(self):
        # The venue_report shape: with its relations loaded, every scan is
        # sized -- the local by the := that fills it -- so nothing re-plans.
        source = """
        proc venue_report(:V, Papers, Authorships)
        rels per_venue(V, N);
          per_venue(V, N) := paper(P, V, _) & group_by(V) & N = count(P).
          return(:V, Papers, Authorships) :=
            per_venue(V, Papers) & paper(P, V, _) & wrote(A, P) &
            group_by(V, Papers) & Authorships = count(A).
        end
        """
        system = make_system(source)
        system.facts("paper", [(f"p{i}", f"v{i % 4}", 1990 + i % 3) for i in range(40)])
        system.facts("wrote", [(f"a{i % 9}", f"p{i % 40}") for i in range(80)])
        proc = system.compile().find_proc("venue_report", 3)
        assert [stmt.replan for stmt in proc.body] == [None, None]
        assert len(system.call("venue_report")) == 4

        blind = make_system(source)
        proc = blind.compile().find_proc("venue_report", 3)
        assert all(stmt.replan is not None for stmt in proc.body)
