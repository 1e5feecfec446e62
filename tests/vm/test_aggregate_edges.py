"""Aggregation edge cases through the full pipeline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import rows_to_python
from repro.glue.aggregates import AGGREGATES
from repro.terms.term import mk
from repro.vm.machine import Frame
from repro.vm.plan import AggStep
from tests.conftest import make_system


def run(source, facts=None, **kwargs):
    system = make_system(source, **kwargs)
    for name, rows in (facts or {}).items():
        system.facts(name, rows)
    system.run_script()
    return system


def rel(system, name, arity):
    return sorted(rows_to_python(system.rows(name, arity)))


class TestAggregateEdges:
    def test_two_aggregates_in_sequence(self):
        # The second aggregator sees the supplementary relation extended by
        # the first (MaxV column included).
        system = run(
            "stats(Min, Max) := n(V) & Max = max(V) & Min = min(V).",
            facts={"n": [(3,), (1,), (2,)]},
        )
        assert rel(system, "stats", 2) == [(1, 3)]

    def test_aggregate_of_computed_expression(self):
        system = run(
            "total(T) := item(P, Q) & V = P * Q & T = sum(V).",
            facts={"item": [(2, 3), (4, 5)]},
        )
        assert rel(system, "total", 1) == [(26,)]

    def test_aggregate_argument_can_be_expression(self):
        system = run(
            "m(X) := n(V) & X = max(V * V).",
            facts={"n": [(-3,), (2,)]},
        )
        assert rel(system, "m", 1) == [(9,)]

    def test_filter_with_inequality_against_aggregate(self):
        system = run(
            "above(V) := n(V) & V > mean(V).",
            facts={"n": [(1,), (2,), (9,)]},
        )
        assert rel(system, "above", 1) == [(9,)]

    def test_group_by_then_global_aggregate_layering(self):
        # Aggregate after a group_by stays grouped: each group's count,
        # then per-group max over the (identical) count value.
        system = run(
            "per(K, C) := d(K, V) & group_by(K) & C = count(V) & C = max(C).",
            facts={"d": [("a", 1), ("a", 2), ("b", 3)]},
        )
        assert rel(system, "per", 2) == [("a", 2), ("b", 1)]

    def test_sum_of_floats_and_ints(self):
        system = run(
            "t(S) := n(V) & S = sum(V).",
            facts={"n": [(1,), (2.5,)]},
        )
        assert rel(system, "t", 1) == [(3.5,)]

    def test_group_key_can_be_output(self):
        system = run(
            "counts(K, C) := d(K, _) & group_by(K) & C = count(K).",
            facts={"d": [("x", 1), ("x", 2), ("y", 3)]},
        )
        # d(K,_) projects to distinct K per group: count is 1 per group.
        assert rel(system, "counts", 2) == [("x", 1), ("y", 1)]


class TestModifyEdges:
    def test_modify_with_computed_value(self):
        system = run(
            "stock(K, V) +=[K] stock(K, Old) & delta(K, D) & V = Old + D.",
            facts={"stock": [("a", 10), ("b", 5)], "delta": [("a", -3)]},
        )
        assert rel(system, "stock", 2) == [("a", 7), ("b", 5)]

    def test_modify_key_collision_within_result(self):
        # Two result rows with the same key: a keyed update is a *keyed*
        # relation write, so exactly one tuple survives per key -- the last
        # distinct result row in plan-output order wins.
        system = run(
            "m(K, V) +=[K] src(K, V).",
            facts={"m": [("k", 0)], "src": [("k", 1), ("k", 2)]},
        )
        assert rel(system, "m", 2) == [("k", 2)]

    def test_modify_all_columns_key(self):
        system = run(
            "m(A, B) +=[A, B] src(A, B).",
            facts={"m": [(1, 1)], "src": [(1, 1), (2, 2)]},
        )
        assert rel(system, "m", 2) == [(1, 1), (2, 2)]


class TestDynamicHeadEdges:
    def test_dynamic_head_modify(self):
        system = run(
            "bucket(K)(Id, V) +=[Id] data(K, Id, V).",
            facts={"data": [("a", 1, 10), ("a", 2, 20), ("b", 1, 30)]},
        )
        from repro.terms.term import mk

        a_rows = system.db.get(mk(("bucket", "a")), 2)
        assert len(a_rows) == 2

    def test_dynamic_head_delete(self):
        from repro.terms.term import mk

        system = make_system("bucket(K)(V) -= kill(K, V).")
        system.db.relation(mk(("bucket", "a")), 1).insert((mk(1),))
        system.db.relation(mk(("bucket", "a")), 1).insert((mk(2),))
        system.facts("kill", [("a", 1)])
        system.run_script()
        assert len(system.db.get(mk(("bucket", "a")), 1)) == 1


# --------------------------------------------------------------------- #
# per-group collapse: differential against a statement that may not
# --------------------------------------------------------------------- #
#
# An aggregate whose later readers see only its group columns and its
# bound variable emits one row per group.  The oracle is the same engine
# given a copy of the statement whose head also reads the non-group
# column X, which makes collapsing illegal; projecting that copy's rows
# back onto the original head must give the same rows in the same order.

# (body, head arguments, expected per_group flag of each AggStep)
COLLAPSE_TEMPLATES = [
    ("d(K, J, X, V) & group_by(K) & M = {a}(V)", "K, M", [True]),
    ("d(K, J, X, V) & group_by(K) & group_by(J) & M = {a}(V)", "K, J, M", [True]),
    ("d(K, J, X, V) & group_by(K) & group_by(J) & M = {a}(V)", "J, M", [True]),
    ("d(K, J, X, V) & M = {a}(V)", "M", [True]),
    ("d(K, J, X, V) & group_by(K) & V {op} {a}(V)", "K", [True]),
    ("d(K, J, X, V) & group_by(K, J) & X {op} {a}(V)", "J", [True]),
    ("d(K, J, X, V) & group_by(K) & M = {a}(V) & N = {b}(J)", "K, N", [False, True]),
    ("d(K, J, X, V) & group_by(K) & M = {a}(V) & N = {b}(J)", "K, M, N", [False, False]),
    ("d(K, J, X, V) & group_by(K) & M = {a}(V) & e(K, W)", "K, M, W", [True]),
    ("d(K, J, X, V) & group_by(K) & M = {a}(V) & !e(K, 0)", "K, M", [True]),
]

agg_ops = st.sampled_from(sorted(AGGREGATES))
filter_ops = st.sampled_from([">", ">=", "<", "<=", "=", "!="])
d_rows = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2), st.integers(0, 3)),
    min_size=1, max_size=12,
)
e_rows = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=5)
exec_modes = st.sampled_from(
    [{}, {"keep_duplicates": True}, {"materialized": True},
     {"materialized": True, "keep_duplicates": True}]
)


def _compiled_stmt(source, facts, mode):
    system = make_system(source, **mode)
    for name, rows in facts.items():
        system.facts(name, rows)
    return system, system.compile().script[0]


def _head_stream(system, stmt):
    """The statement's head rows, in plan-output order, duplicates kept."""
    rows = system.machine.run_plan(stmt.plan, Frame(None, system.ctx))
    return [tuple(fn(r) for fn in stmt.head_fns) for r in rows]


def _per_group_flags(stmt):
    return [step.per_group for step in stmt.plan if isinstance(step, AggStep)]


class TestPerGroupCollapse:
    @given(
        st.sampled_from(COLLAPSE_TEMPLATES), agg_ops, agg_ops, filter_ops,
        d_rows, e_rows, exec_modes,
    )
    @settings(max_examples=150, deadline=None)
    def test_collapse_matches_uncollapsible_copy(
        self, template, a, b, op, d, e, mode
    ):
        body_t, head, flags = template
        body = body_t.format(a=a, b=b, op=op)
        facts = {"d": d, "e": e}
        system, stmt = _compiled_stmt(f"out({head}) := {body}.", facts, mode)
        oracle_sys, oracle = _compiled_stmt(f"out({head}, X) := {body}.", facts, mode)
        assert _per_group_flags(stmt) == flags
        assert not any(_per_group_flags(oracle))
        got = list(dict.fromkeys(_head_stream(system, stmt)))
        want = list(dict.fromkeys(row[:-1] for row in _head_stream(oracle_sys, oracle)))
        assert got == want

    def test_filter_collapse_keeps_first_passing_order(self):
        # Group 0 is seen first, but group 1 passes the filter first: the
        # collapsed rows follow the first passing member, not the group.
        body = "d(K, J, X, V) & group_by(K) & V >= max(V)"
        facts = {"d": [(0, 0, 0, 0), (1, 0, 0, 1), (0, 0, 1, 2)]}
        system, stmt = _compiled_stmt(f"out(K) := {body}.", facts, {})
        assert _per_group_flags(stmt) == [True]
        got = rows_to_python(dict.fromkeys(_head_stream(system, stmt)))
        assert got == [(1,), (0,)]

    @given(agg_ops, d_rows, exec_modes)
    @settings(max_examples=60, deadline=None)
    def test_keyed_update_last_row_wins_unchanged(self, a, d, mode):
        # Groups are (K, J); the key is K alone, so several head rows share
        # a key and the last one in result order must win, collapsed or not.
        body = f"d(K, J, X, V) & group_by(K, J) & M = {a}(V)"
        facts = {"d": d, "m": [(k, -1) for k in range(4)]}
        system, stmt = _compiled_stmt(f"m(K, M) +=[K] {body}.", facts, mode)
        oracle_sys, oracle = _compiled_stmt(f"out(K, M, X) := {body}.", facts, mode)
        assert _per_group_flags(stmt) == [True]
        system.run_script()
        want = {k: (k, -1) for k in range(4)}
        stream = rows_to_python(row[:-1] for row in _head_stream(oracle_sys, oracle))
        for row in dict.fromkeys(stream):
            want[row[0]] = row
        assert rel(system, "m", 2) == sorted(want.values())

    @given(agg_ops, d_rows, exec_modes)
    @settings(max_examples=40, deadline=None)
    def test_hilog_head_reading_non_group_column_does_not_collapse(self, a, d, mode):
        body = f"d(K, J, X, V) & group_by(K) & M = {a}(V)"
        system, stmt = _compiled_stmt(f"bucket(X)(K, M) := {body}.", {"d": d}, mode)
        oracle_sys, oracle = _compiled_stmt(f"out(X, K, M) := {body}.", {"d": d}, mode)
        assert _per_group_flags(stmt) == [False]
        system.run_script()
        got = set()
        for x in range(3):
            relation = system.db.get(mk(("bucket", x)), 2)
            if relation is not None:
                got |= {(x,) + row for row in rows_to_python(relation.sorted_rows())}
        want = set(rows_to_python(_head_stream(oracle_sys, oracle)))
        assert got == want
