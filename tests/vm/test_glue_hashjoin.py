"""Differential tests for the Glue VM's statement-level hash joins.

Every workload runs on the product (planned set-at-a-time probing) and on
the sqlite3 reference semantics (``tests.oracle``), and the resulting
relations must agree exactly; procedures and ``+=[K]``, which the oracle
does not cover, are checked against their answers in closed form.  A
second group asserts the *point* of the planner: ``tuples_scanned``
collapses on keyed joins, against a nested-loop charge computed in closed
form, and ``glue_hash_joins`` records the planned scans.
"""

import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_system
from repro.core.query import rows_to_python
from repro.storage.adaptive import NeverIndexPolicy
from repro.storage.database import Database
from repro.vm.machine import Frame
from tests.differential import agree, product_rows


def build(source, facts=None, **kwargs):
    system = reference_system(**kwargs)
    system.load(source)
    for name, rows in (facts or {}).items():
        system.facts(name, rows)
    system.compile()
    system.reset_counters()
    return system


def assert_agrees(source, facts, out_preds, **system_kwargs):
    """The product (built with ``system_kwargs``) gives the oracle's rows."""

    def product(source, facts, preds):
        return product_rows(source, facts, preds, reference_system(**system_kwargs))

    result = agree(source, facts, out_preds, product=product)
    assert result is not None, "the oracle skipped a fixed workload"
    return result


def three_way_facts(n):
    return {
        "r": [(i, i % 40) for i in range(n)],
        "s": [(i % 40, (i * 7) % 40) for i in range(n)],
        "t": [((i * 7) % 40, i) for i in range(n)],
    }


def random_edges(nodes, edges, seed):
    rng = random.Random(seed)
    out = set()
    while len(out) < edges:
        out.add((rng.randrange(nodes), rng.randrange(nodes)))
    return sorted(out)


class TestDifferential:
    def test_two_way_join(self):
        result = assert_agrees(
            "out(X, Z) := r(X, Y) & s(Y, Z).",
            {
                "r": random_edges(20, 60, seed=1),
                "s": random_edges(20, 60, seed=2),
            },
            [("out", 2)],
        )
        assert result[("out", 2)]  # non-degenerate workload

    def test_triangle_join(self):
        edges = random_edges(12, 50, seed=3)
        assert_agrees(
            "tri(X, Y, Z) := e1(X, Y) & e2(Y, Z) & e3(Z, X).",
            {"e1": edges, "e2": edges, "e3": edges},
            [("tri", 3)],
        )

    def test_negation(self):
        result = assert_agrees(
            "no_link(X, Y) := node(X) & node(Y) & !edge(X, Y).",
            {
                "node": [(i,) for i in range(10)],
                "edge": random_edges(10, 30, seed=4),
            },
            [("no_link", 2)],
        )
        assert result[("no_link", 2)]

    def test_negation_with_wildcards(self):
        # The anti-join key is only the bound column; the wildcard column
        # must stay out of the probe key.
        assert_agrees(
            "root(X) := node(X) & !edge(_, X).",
            {
                "node": [(i,) for i in range(10)],
                "edge": random_edges(10, 25, seed=5),
            },
            [("root", 1)],
        )

    def test_repeated_fresh_variable(self):
        # edge(Y, Y): a repeated fresh variable becomes an equality check
        # on the stored row, not a probe key.
        assert_agrees(
            "looped(X, Y) := edge(X, Y) & edge(Y, Y).",
            {"edge": random_edges(8, 30, seed=6) + [(2, 2), (5, 5)]},
            [("looped", 2)],
        )

    def test_repeated_bound_variable(self):
        # s(Y, Y) with Y bound: both positions are probe-key columns.
        assert_agrees(
            "out(X, Y) := r(X, Y) & s(Y, Y).",
            {"r": random_edges(10, 40, seed=7), "s": random_edges(10, 40, seed=7)},
            [("out", 2)],
        )

    def test_constants_in_pattern(self):
        assert_agrees(
            "picked(Y) := edge(3, Y) & edge(Y, 3).",
            {"edge": random_edges(8, 40, seed=8)},
            [("picked", 1)],
        )

    def test_fully_bound_membership(self):
        # Second scan is fully bound: degenerates to a membership test.
        assert_agrees(
            "mutual(X, Y) := edge(X, Y) & edge(Y, X).",
            {"edge": random_edges(10, 45, seed=9)},
            [("mutual", 2)],
        )

    def test_dynamic_predicate_name_scan(self):
        # HiLog: the scanned predicate's name comes from a set-valued
        # attribute, so the hash path keeps one join state per name.
        facts = {
            "which": [("p",), ("q",)],
            "p": [(1, "a"), (2, "b"), (3, "c")],
            "q": [(1, "x"), (4, "y")],
        }
        result = assert_agrees(
            "out(P, X, V) := which(P) & P(X, V).",
            facts,
            [("out", 3)],
        )
        assert len(result[("out", 3)]) == 5

    def test_nail_view_in_body(self):
        # A NAIL! predicate in a Glue body: the view's materialized
        # relation is indexable, so the scan still probes by key.
        source = """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y) & edge(Y, Z).
        reach(X, Y) := start(X) & path(X, Y).
        """
        assert_agrees(
            source,
            {"edge": [(i, i + 1) for i in range(15)], "start": [(0,), (7,)]},
            [("reach", 2)],
        )

    def test_join_inside_procedure_with_repeat(self):
        source = """
        proc close(X:Y)
        rels step(A, B);
          step(X, Y) := in(X) & edge(X, Y).
          repeat
            step(X, Y) += step(X, Z) & edge(Z, Y).
          until unchanged(step(_, _));
          return(X:Y) := step(X, Y).
        end
        """
        edges = [(i, i + 1) for i in range(12)]
        system = build(source, {"edge": edges})
        rows = sorted(rows_to_python(system.call("close", [(0,)])))
        assert rows == [(0, j) for j in range(1, 13)]

    def test_join_inside_repeat(self):
        # The procedure's loop as a top-level script, for the oracle.
        assert_agrees(
            """
            step(X, Y) := start(X) & edge(X, Y).
            repeat
              step(X, Y) += step(X, Z) & edge(Z, Y).
            until unchanged(step(_, _));
            """,
            {"edge": [(i, i + 1) for i in range(12)], "start": [(0,), (5,)]},
            [("step", 2)],
        )

    def test_keyed_assignment_agrees(self):
        system = build(
            "m(K, V) +=[K] delta(K, V).",
            {"m": [(1, "old"), (2, "old")], "delta": [(2, "new"), (3, "new")]},
        )
        system.run_script()
        assert rows_to_python(system.rows("m", 2)) == [(1, "old"), (2, "new"), (3, "new")]

    @pytest.mark.parametrize("n", [100, 200])
    def test_join_antijoin_keyed_update_pipeline(self, n):
        # A 3-way join feeding an anti-join, with the adaptive index policy
        # off, against the oracle; then a keyed update, whose winner per key
        # is the last row in result order, against its closed form.
        source = """
        joined(A, D) := r(A, B) & s(B, C) & t(C, D).
        far(A, D) := joined(A, D) & !near(A, D).
        """
        facts = dict(three_way_facts(n), near=[(i, i) for i in range(n)])
        result = assert_agrees(
            source, facts, [("joined", 2), ("far", 2)],
            db=Database(index_policy=NeverIndexPolicy()),
        )
        assert result[("far", 2)]
        system = build("latest(B, A) +=[B] r(A, B).", facts)
        system.run_script()
        latest = rows_to_python(system.rows("latest", 2))
        assert [b for b, _a in latest] == list(range(40))
        assert all(a % 40 == b for b, a in latest)

    @settings(max_examples=40, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=0,
            max_size=25,
        ),
        marks=st.lists(st.integers(0, 6), min_size=0, max_size=5),
    )
    def test_property_differential(self, edges, marks):
        source = """
        hop(X, Z) := edge(X, Y) & edge(Y, Z).
        marked_hop(X, Z) := mark(X) & hop(X, Z).
        lonely(X) := mark(X) & !edge(X, _).
        """
        facts = {
            "edge": sorted(set(edges)),
            "mark": sorted({(m,) for m in marks}),
        }
        out_preds = [("hop", 2), ("marked_hop", 2), ("lonely", 1)]
        assert_agrees(source, facts, out_preds)


class TestCostCollapse:
    SOURCE = "out(A, D) := r(A, B) & s(B, C) & t(C, D)."

    def test_tuples_scanned_collapse(self):
        # The adaptive *index* policy would eventually index a nested loop
        # on its own; pinning NeverIndexPolicy isolates what the statement
        # planner contributes (explicit build_index calls are unaffected).
        n = 400
        facts = three_way_facts(n)
        hashed = build(self.SOURCE, facts, db=Database(index_policy=NeverIndexPolicy()))
        hashed.run_script()
        assert rows_to_python(hashed.rows("out", 2))
        # A nested loop charges rows in x |relation| per literal: r once,
        # s once per r row, t once per row of r joined with s.
        s_per_key = Counter(b for b, _c in facts["s"])
        r_join_s = sum(s_per_key[b] for _a, b in facts["r"])
        nested = n + n * n + r_join_s * n
        assert hashed.counters.tuples_scanned * 5 < nested
        assert hashed.counters.total_tuple_touches * 5 < nested

    def test_glue_hash_joins_counted(self):
        system = build(self.SOURCE, three_way_facts(100))
        system.run_script()
        # r is a broadcast source, s and t are keyed probes: every scan
        # step builds exactly one join state.
        assert system.counters.glue_hash_joins == 3


class TestFrameKernelTables:
    """Every call gets fresh local/in/return relations; a probe table built
    over one of them lives on that relation and dies with the frame, while
    the EDB relations keep theirs across calls."""

    SOURCE = """
    proc pick(:X, Y, Z)
    rels t(X, Y);
      t(X, Y) := big(X, Y).
      return(:X, Y, Z) := small(X) & t(X, Y) & label(Y, Z).
    end
    """
    FACTS = {
        "big": [(i % 5, i) for i in range(40)],
        "small": [(1,), (3,)],
        "label": [(i, f"l{i}") for i in range(40)],
    }

    def test_frame_tables_die_with_the_frame(self, monkeypatch):
        system = build(self.SOURCE, self.FACTS)
        columnar = system.db.columnar
        expected = sorted(rows_to_python(system.call("pick").rows))
        assert len(expected) == 16
        edb_tables = {
            key: dict(relation.kernel_tables) for key, relation in system.db.items()
        }
        assert any(edb_tables.values()), "the EDB side was not probed through a kernel table"

        frames = []
        init = Frame.__init__

        def recording_init(frame, proc, ctx):
            init(frame, proc, ctx)
            owned = (*frame.locals.values(), frame.in_rel, frame.return_rel)
            frames.extend(weakref.ref(relation) for relation in owned)

        monkeypatch.setattr(Frame, "__init__", recording_init)
        misses = columnar.misses
        gc.disable()
        try:
            for _ in range(299):
                assert sorted(rows_to_python(system.call("pick").rows)) == expected
            # Reference counting alone freed every frame's relations, and
            # their kernel tables with them.
            assert len(frames) == 299 * 3
            assert all(ref() is None for ref in frames)
        finally:
            gc.enable()
        for key, relation in system.db.items():
            assert relation.kernel_tables.keys() == edb_tables[key].keys()
            for shape, entry in edb_tables[key].items():
                assert relation.kernel_tables[shape] is entry  # never rebuilt
        # The only miss per call is the frame's own fresh local t/2.
        assert columnar.misses - misses == 299
