"""Execution tests for assignment statements (paper Section 3)."""

import pytest

from repro.core.query import rows_to_python
from repro.errors import CompileError
from repro.storage.relation import MAX_CHANGELOG_ENTRIES, Relation, matching_rows
from repro.storage.stats import CostCounters
from repro.terms.term import Atom, Num, Var
from tests.conftest import make_system


def run(source, facts=None, script=True, **kwargs):
    system = make_system(source, **kwargs)
    for name, rows in (facts or {}).items():
        system.facts(name, rows)
    system.compile()
    if script:
        system.run_script()
    return system


def rel(system, name, arity):
    return sorted(rows_to_python(system.rows(name, arity)))


class TestAssignmentOperators:
    def test_clearing_assignment_overwrites(self):
        system = run(
            "out(X) := a(X).",
            facts={"a": [(1,), (2,)], "out": [(99,)]},
        )
        assert rel(system, "out", 1) == [(1,), (2,)]

    def test_insertion_assignment_adds(self):
        system = run("out(X) += a(X).", facts={"a": [(1,)], "out": [(99,)]})
        assert rel(system, "out", 1) == [(1,), (99,)]

    def test_deletion_assignment_removes(self):
        system = run(
            "out(X) -= bad(X).",
            facts={"out": [(1,), (2,), (3,)], "bad": [(2,)]},
        )
        assert rel(system, "out", 1) == [(1,), (3,)]

    def test_deleting_absent_tuples_is_noop(self):
        system = run("out(X) -= bad(X).", facts={"out": [(1,)], "bad": [(9,)]})
        assert rel(system, "out", 1) == [(1,)]

    def test_modify_update_by_key(self):
        # +=[K]: like SQL UPDATE -- replace the tuple with key K.
        system = run(
            "account(K, V) +=[K] delta(K, V).",
            facts={"account": [("a", 10), ("b", 20)], "delta": [("a", 99)]},
        )
        assert rel(system, "account", 2) == [("a", 99), ("b", 20)]

    def test_modify_inserts_new_keys(self):
        system = run(
            "account(K, V) +=[K] delta(K, V).",
            facts={"account": [("a", 10)], "delta": [("c", 5)]},
        )
        assert rel(system, "account", 2) == [("a", 10), ("c", 5)]

    def test_modify_removes_all_old_tuples_with_key(self):
        system = run(
            "m(K, V) +=[K] delta(K, V).",
            facts={"m": [("a", 1), ("a", 2), ("b", 3)], "delta": [("a", 9)]},
        )
        assert rel(system, "m", 2) == [("a", 9), ("b", 3)]

    def test_modify_dedups_colliding_incoming_keys(self):
        # Regression: incoming rows that collide on the key used to BOTH
        # survive, leaving duplicate keys in a keyed relation.  The pinned
        # semantics: the last distinct result row (in plan-output order)
        # wins, so exactly one tuple remains per key.
        system = run(
            "m(K, V) +=[K] delta(K, V).",
            facts={"m": [("a", 0)], "delta": [("a", 1), ("a", 2)]},
        )
        assert rel(system, "m", 2) == [("a", 2)]

    def test_modify_collision_deterministic_last_wins(self):
        # Plan output follows the body relation's insertion order, so the
        # surviving tuple is determined by it -- not by set/hash order.
        system = run(
            "m(K, V) +=[K] delta(K, V).",
            facts={"m": [], "delta": [("k", 3), ("k", 1), ("k", 2)]},
        )
        assert rel(system, "m", 2) == [("k", 2)]

    def test_modify_collision_mixed_with_fresh_keys(self):
        system = run(
            "m(K, V) +=[K] delta(K, V).",
            facts={
                "m": [("a", 0), ("b", 0)],
                "delta": [("a", 1), ("c", 1), ("a", 2)],
            },
        )
        assert rel(system, "m", 2) == [("a", 2), ("b", 0), ("c", 1)]

    def test_modify_victims_via_index_not_full_scan(self):
        # The victim lookup must be keyed (index probes), not a walk over
        # every stored tuple.
        from repro.storage.adaptive import NeverIndexPolicy
        from repro.storage.database import Database

        from tests.conftest import make_system

        system = make_system(
            "m(K, V) +=[K] delta(K, V).", db=Database(index_policy=NeverIndexPolicy())
        )
        system.facts("m", [(i, "old") for i in range(500)])
        system.facts("delta", [(3, "new")])
        system.compile()
        system.reset_counters()
        system.run_script()
        assert rel(system, "m", 2)[3] == (3, "new")
        # The victims came from key-index probes (one per incoming key),
        # and no full-relation scan was charged for the update.
        assert system.counters.index_lookups >= 1
        assert system.db.get("m", 2).has_index((0,))
        assert system.counters.tuples_scanned < 100

    def test_empty_body_clears_on_clearing_assignment(self):
        system = run("out(X) := a(X).", facts={"out": [(1,)]})
        assert rel(system, "out", 1) == []


class TestBodies:
    def test_join(self):
        system = run(
            "r(X, Y) += s(X, W) & t(W, Y).",
            facts={"s": [(1, 10), (2, 20)], "t": [(10, "a"), (20, "b"), (10, "c")]},
        )
        assert rel(system, "r", 2) == [(1, "a"), (1, "c"), (2, "b")]

    def test_compound_term_join(self):
        # Section 3.1: r(X,Y) += s(X,W) & t(f(W,X),Y).
        system = run(
            "r(X, Y) += s(X, W) & t(f(W, X), Y).",
            facts={"s": [(1, 10)], "t": [(("f", 10, 1), "hit"), (("f", 9, 9), "miss")]},
        )
        assert rel(system, "r", 2) == [(1, "hit")]

    def test_identity_matrix(self):
        system = run(
            """
            matrix(X, X, 1.0) := row(X).
            matrix(X, Y, 0.0) += row(X) & row(Y) & X != Y.
            """,
            facts={"row": [(1,), (2,), (3,)]},
        )
        rows = rel(system, "matrix", 3)
        assert len(rows) == 9
        assert (1, 1, 1.0) in rows and (1, 2, 0.0) in rows

    def test_negation(self):
        system = run(
            "good(X) := all(X) & !bad(X).",
            facts={"all": [(1,), (2,), (3,)], "bad": [(2,)]},
        )
        assert rel(system, "good", 1) == [(1,), (3,)]

    def test_arithmetic_binding(self):
        system = run(
            "double(X, D) := n(X) & D = X * 2.",
            facts={"n": [(1,), (2,)]},
        )
        assert rel(system, "double", 2) == [(1, 2), (2, 4)]

    def test_comparison_filter(self):
        system = run("small(X) := n(X) & X < 3.", facts={"n": [(1,), (5,), (2,)]})
        assert rel(system, "small", 1) == [(1,), (2,)]

    def test_string_builtins(self):
        system = run(
            "greeting(G) := name(N) & G = concat('hi ', N).",
            facts={"name": [("ann",)]},
        )
        assert rel(system, "greeting", 1) == [("hi ann",)]

    def test_true_false(self):
        system = run("a() := true.\nb() := false.")
        assert rel(system, "a", 0) == [()]
        assert rel(system, "b", 0) == []

    def test_anonymous_variables(self):
        system = run(
            "firsts(X) := pair(X, _).",
            facts={"pair": [(1, "a"), (1, "b"), (2, "c")]},
        )
        assert rel(system, "firsts", 1) == [(1,), (2,)]

    def test_statement_order_matters(self):
        # Left-to-right execution: the second statement sees the first's
        # effect ("use the current value").
        system = run(
            """
            stage(X) := a(X).
            stage(X) += b(X).
            out(X) := stage(X).
            """,
            facts={"a": [(1,)], "b": [(2,)]},
        )
        assert rel(system, "out", 1) == [(1,), (2,)]

    def test_body_updates(self):
        system = run(
            "processed(X) := queue(X) & --queue(X) & ++log(X).",
            facts={"queue": [(1,), (2,)]},
        )
        assert rel(system, "processed", 1) == [(1,), (2,)]
        assert rel(system, "queue", 1) == []
        assert rel(system, "log", 1) == [(1,), (2,)]

    def test_wildcard_delete(self):
        system = run(
            "touched(X) := target(X) & --data(X, _).",
            facts={"target": [(1,)], "data": [(1, "a"), (1, "b"), (2, "c")]},
        )
        assert rel(system, "data", 2) == [(2, "c")]


class TestUpdateSubgoalBatches:
    """An update subgoal applies its instantiations to a relation as one
    batch: one version bump, so a materialized NAIL! view over a change
    bigger than the change log repairs from one delta, not a resync."""

    ROWS = MAX_CHANGELOG_ENTRIES + 1

    @pytest.mark.parametrize(
        "subgoal, left",
        [("++p(X, nil)", 2 * ROWS), ("--p(X, X)", 0), ("--p(X, _)", 0)],
    )
    def test_one_version_bump_per_subgoal(self, subgoal, left):
        system = run(
            f"reach(X) :- p(X, _).\ndone(X) := src(X) & {subgoal}.",
            facts={"src": [(i,) for i in range(self.ROWS)],
                   "p": [(i, i) for i in range(self.ROWS)]},
            script=False,
        )
        assert len(system.query("reach(X)?").rows) == self.ROWS
        p = system.db.relation("p", 2)
        version = p.version
        system.run_script()
        assert p.version == version + 1
        assert len(p) == left
        assert len(system.query("reach(X)?").rows) == (self.ROWS if left else 0)
        if subgoal.startswith("++"):
            assert system.counters.idb_delta_repairs == 1
            assert system.counters.idb_resyncs == 0

    def test_wildcard_delete_is_charged_as_matching_rows(self):
        """Each wildcard ``--`` pattern is matched as a query is: through
        the adaptive indexes, with every scan and probe charged."""
        n = 2000
        facts = {"src": [(i,) for i in range(n)], "q": [(i, "a") for i in range(n)]}
        charged = ("tuples_scanned", "index_lookups", "index_probe_tuples",
                   "index_builds", "index_build_tuples")

        def cost(update):
            system = run(f"proc wipe(N:)\n  return(N:) := in(N) & src(X){update}.\nend",
                         facts=facts, script=False)
            before = system.counters.snapshot()
            system.call("wipe", [(1,)])
            after = system.counters.snapshot()
            return system, {name: after[name] - before[name] for name in (*charged, "deletes")}

        system, with_delete = cost(" & --q(X, _)")
        _, body_only = cost("")
        assert len(system.db.relation("q", 2)) == 0
        assert with_delete["deletes"] == n

        twin = Relation(Atom("q"), 2, counters=CostCounters(),
                        index_policy=system.db.index_policy)
        twin.insert_many(tuple(map(Num, row[:1])) + (Atom("a"),) for row in facts["q"])
        twin.counters.reset()
        for x in range(n):
            assert matching_rows(twin, (Num(x), Var("_"))) == [(Num(x), Atom("a"))]
        expected = {name: getattr(twin.counters, name) for name in charged}
        assert expected["index_lookups"] > 0  # the indexes served the patterns
        assert {name: with_delete[name] - body_only[name] for name in charged} == expected


class TestAggregates:
    def test_max_extends_every_tuple(self):
        # Section 3.3: max binds MaxT on every supplementary tuple.
        system = run(
            "pairs(T, MaxT) := temperature(T) & MaxT = max(T).",
            facts={"temperature": [(10,), (35,)]},
        )
        assert rel(system, "pairs", 2) == [(10, 35), (35, 35)]

    def test_coldest_city_with_join(self):
        system = run(
            """
            coldest(Name) :=
              daily_temp(Name, T) & MinT = min(T) & T = MinT.
            """,
            facts={"daily_temp": [("sf", 12), ("madang", 36), ("copenhagen", -2)]},
        )
        assert rel(system, "coldest", 1) == [("copenhagen",)]

    def test_coldest_city_inline(self):
        system = run(
            "coldest(Name) := daily_temp(Name, T) & T = min(T).",
            facts={"daily_temp": [("sf", 12), ("copenhagen", -2), ("oslo", -2)]},
        )
        # Ties: all minimal cities (footnote 6 in the paper).
        assert rel(system, "coldest", 1) == [("copenhagen",), ("oslo",)]

    def test_mean_sees_duplicates_across_tuples(self):
        # Two cities with the same temperature: both readings count.
        system = run(
            "avg(A) := daily_temp(Name, T) & A = mean(T).",
            facts={"daily_temp": [("a", 10), ("b", 10), ("c", 40)]},
        )
        assert rel(system, "avg", 1) == [(20.0,)]

    def test_group_by(self):
        system = run(
            """
            course_average(C, A) :=
              course_student_grade(C, S, G) & group_by(C) & A = mean(G).
            """,
            facts={
                "course_student_grade": [
                    ("cs1", "ann", 90), ("cs1", "bob", 80),
                    ("cs2", "cat", 60), ("cs2", "dan", 70), ("cs2", "eve", 80),
                ]
            },
        )
        assert rel(system, "course_average", 2) == [("cs1", 85.0), ("cs2", 70.0)]

    def test_group_by_cascade(self):
        # Cascading group_bys split groups further (Section 3.3.1).
        system = run(
            """
            by_dept_team(D, T, S) :=
              emp(D, T, _, Pay) & group_by(D) & group_by(T) & S = sum(Pay).
            """,
            facts={
                "emp": [
                    ("eng", "a", "e1", 10), ("eng", "a", "e2", 20),
                    ("eng", "b", "e3", 5), ("ops", "a", "e4", 7),
                ]
            },
        )
        assert rel(system, "by_dept_team", 3) == [
            ("eng", "a", 30), ("eng", "b", 5), ("ops", "a", 7),
        ]

    def test_count_per_group(self):
        system = run(
            "sizes(C, N) := enrolled(C, S) & group_by(C) & N = count(S).",
            facts={"enrolled": [("cs1", "a"), ("cs1", "b"), ("cs2", "c")]},
        )
        assert rel(system, "sizes", 2) == [("cs1", 2), ("cs2", 1)]

    def test_filter_against_group_aggregate(self):
        # T < mean(T): keep below-average readings per group.
        system = run(
            "cool(C, T) := reading(C, T) & group_by(C) & T < mean(T).",
            facts={"reading": [("x", 1), ("x", 3), ("y", 10), ("y", 10)]},
        )
        assert rel(system, "cool", 2) == [("x", 1)]

    def test_aggregate_on_empty_body_stops_statement(self):
        # An empty supplementary relation stops execution before the
        # aggregator; no error, no tuples.
        system = run("m(X) := nothing(Y) & X = max(Y).")
        assert rel(system, "m", 1) == []

    def test_arbitrary_picks_one(self):
        system = run(
            "one(X) := n(V) & X = arbitrary(V).",
            facts={"n": [(3,), (1,), (2,)]},
        )
        rows = rel(system, "one", 1)
        assert len({r[0] for r in rows}) == 1


class TestCompileErrors:
    def test_unbound_head_variable(self):
        with pytest.raises(CompileError):
            run("out(X, Y) := a(X).")

    def test_assign_to_nail_predicate(self):
        with pytest.raises(CompileError):
            run("p(X) :- q(X).\np(X) += r(X).", script=False)

    def test_unsafe_negation_reported(self):
        with pytest.raises(CompileError):
            run("out(X) := a(X) & !b(Y).")

    def test_statements_inside_module_rejected(self):
        with pytest.raises(CompileError):
            run("module m;\nout(X) := a(X).\nend", script=False)

    def test_modify_key_not_in_head(self):
        with pytest.raises(CompileError):
            run("out(X) +=[Z] a(X).")

    def test_strict_mode_requires_declarations(self):
        with pytest.raises(CompileError):
            run("out(X) := a(X).", strict=True, script=False)
