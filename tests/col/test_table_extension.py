"""Kernel probe tables follow the change log.

When every change to a relation since a cached probe table was built is
an insert, ``ColumnarContext`` extends the table (re-encoding only the
buckets the new rows landed in) instead of rebuilding it from every row.
An extended table must be indistinguishable from a fresh build, and the
table it was extended from must not change: a reader pinned at the older
version may still be probing it.

The kernels read only ``probe_cols`` / ``extract`` / ``eq_checks`` of a
NAIL! literal plan and ``probe_cols`` / ``extract_cols`` / ``eq_checks``
of a Glue statement shape, so plain namespaces stand in for both here.
"""

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_server
from repro.col.kernels import ColumnarContext
from repro.server.client import Client
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.stats import COUNTER_FIELDS
from repro.terms.term import Atom, Num
from repro.txn.manager import TransactionManager

# (probe columns, extracted columns, eq-checks) over an arity-3 relation;
# the last one keeps only rows whose column 2 equals column 1.
SHAPES = [
    ((0,), (1, 2), ()),
    ((1,), (0, 2), ()),
    ((0, 1), (2,), ()),
    ((0,), (1, 2), ((2, 1),)),
]


def literal_plan(probe_cols, extract_cols, eq_checks):
    """The fields of a LiteralPlan the probe-table builders read."""
    return SimpleNamespace(
        probe_cols=probe_cols, extract_cols=extract_cols, eq_checks=eq_checks
    )


KINDS = {
    "nail": (ColumnarContext.probe_table, literal_plan),
    "glue": (ColumnarContext.glue_probe_table, literal_plan),
}


def term_row(row):
    return tuple(Num(v) for v in row)


def fresh_table(ctx, kind, relation, plan):
    """A full build over ``relation`` in ``ctx``'s id space."""
    fresh = ColumnarContext()
    fresh.atoms = ctx.atoms
    table, status = KINDS[kind][0](fresh, relation, plan)
    assert status == "miss"
    return table


rows3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
# (operation, argument, probe the tables afterwards?)  Steps that do not
# probe let one extension span several change-log entries.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert_batch", "delete", "rollback", "freeze"]),
        st.lists(rows3, min_size=1, max_size=6),
        st.booleans(),
    ),
    max_size=25,
)


class TestExtendedEqualsRebuilt:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(deadline=None, max_examples=40)
    @given(initial=st.lists(rows3, max_size=12), ops=OPS)
    def test_property_every_version(self, kind, initial, ops):
        build, make_plan = KINDS[kind]
        db = Database()
        manager = TransactionManager(db)
        db.attach_journal(manager)
        relation = db.relation("r", 3)
        relation.track_changes()
        db.facts("r", initial)
        ctx = db.columnar
        plans = [make_plan(*shape) for shape in SHAPES]
        handed_out = []  # (table, deep copy at hand-out) per earlier probe
        probed_at = None  # the version the cached tables were built at
        inserts_only = True  # every change since then was an insert
        for op, rows, probe in [("start", [], True)] + ops:
            before = relation.version
            target = relation
            if op == "insert":
                db.facts("r", rows)  # one change-log entry per new row
            elif op == "insert_batch":
                relation.insert_many([term_row(row) for row in rows])
            elif op == "delete" and len(relation):
                relation.delete(list(relation.rows())[len(rows) % len(relation)])
            elif op == "rollback":
                manager.begin()
                db.facts("r", rows)
                manager.rollback()
            elif op == "freeze":
                target = relation.freeze()
            if relation.version != before and not op.startswith("insert"):
                inserts_only = False
            if not probe:
                continue
            if probed_at is None:
                expected = "miss"
            elif relation.version == probed_at:
                expected = "hit"
            else:
                expected = "extend" if inserts_only else "miss"
            for plan in plans:
                table, status = build(ctx, target, plan)
                assert table == fresh_table(ctx, kind, target, plan)
                assert status == expected
                handed_out.append((table, copy.deepcopy(table)))
            for table, snapshot in handed_out:
                assert table == snapshot
            probed_at, inserts_only = relation.version, True


class TestExtension:
    def relation(self, rows):
        relation = Relation(Atom("r"), 3)
        relation.track_changes()
        relation.insert_many([term_row(row) for row in rows])
        return relation

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_table_handed_out_is_unchanged_by_extension(self, kind):
        build, make_plan = KINDS[kind]
        ctx = ColumnarContext()
        plan = make_plan((0,), (1, 2), ())
        relation = self.relation([(1, 1, 1), (2, 2, 2)])
        old, _ = build(ctx, relation, plan)
        snapshot = copy.deepcopy(old)
        relation.insert_many([term_row((1, 3, 3)), term_row((5, 5, 5))])
        new, status = build(ctx, relation, plan)
        assert status == "extend"
        assert new is not old
        assert old == snapshot
        assert len(new) == 3 and new != old
        assert ctx.extends == 1 and ctx.misses == 1 and ctx.hits == 0
        assert ctx.stats()["cache_extends"] == 1

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_insert_delete_reinsert_rebuilds(self, kind):
        # The window nets to two inserts, but x moved behind y in its
        # bucket: appending the net would give the wrong row order.
        build, make_plan = KINDS[kind]
        ctx = ColumnarContext()
        plan = make_plan((0,), (1, 2), ())
        relation = self.relation([(1, 0, 0)])
        build(ctx, relation, plan)
        x, y = term_row((1, 1, 1)), term_row((1, 2, 2))
        relation.insert(x)
        relation.insert(y)
        relation.delete(x)
        relation.insert(x)
        assert relation.changes_since(1) == ([x, y], [])
        assert relation.build_index((0,)).bucket((Num(1),))[1:] == [y, x]
        table, status = build(ctx, relation, plan)
        assert table == fresh_table(ctx, kind, relation, plan)
        assert status == "miss"

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_untracked_or_newer_entries_rebuild(self, kind):
        build, make_plan = KINDS[kind]
        ctx = ColumnarContext()
        plan = make_plan((0,), (1, 2), ())
        untracked = Relation(Atom("u"), 3)
        untracked.insert(term_row((1, 1, 1)))
        build(ctx, untracked, plan)
        untracked.insert(term_row((1, 2, 2)))
        assert build(ctx, untracked, plan)[1] == "miss"
        # A reader pinned at an older version than the cached entry.
        relation = self.relation([(1, 1, 1)])
        old = relation.freeze()
        relation.insert(term_row((2, 2, 2)))
        build(ctx, relation, plan)
        table, status = build(ctx, old, plan)
        assert status == "miss"
        assert table == fresh_table(ctx, kind, old, plan)

    def test_build_index_is_charged_as_before(self):
        # The extension path still asks the relation for its index, so a
        # frozen clone (which starts without indexes) charges its build.
        ctx = ColumnarContext()
        plan = literal_plan((0,), (1, 2), ())
        relation = self.relation([(i, i, i) for i in range(10)])
        ctx.probe_table(relation.freeze(), plan)
        relation.insert(term_row((10, 10, 10)))
        clone = relation.freeze()
        builds = clone.counters.index_builds
        tuples = clone.counters.index_build_tuples
        assert ctx.probe_table(clone, plan)[1] == "extend"
        assert clone.counters.index_builds == builds + 1
        assert clone.counters.index_build_tuples == tuples + 11


class TestReporting:
    def test_explain_analyze_reports_extend(self):
        from repro.core.system import GlueNailSystem

        system = GlueNailSystem()
        system.load("path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y) & edge(Y, Z).")
        system.facts("edge", [(i, i + 1) for i in range(10)])
        system.rows("path", 2)
        system.facts("edge", [(10, 11)])
        report = system.explain_analyze("path(X, Y)?")
        kernels = report[report.index("Batch kernels"):report.index("Execution")]
        assert any(
            line.split()[:2] == ["edge/2", "probe"] and line.split()[-1] == "extend"
            for line in kernels.splitlines()
        )
        assert system.db.columnar.stats()["cache_extends"] == 1


class TestFrozenProfiles:
    def test_clone_inherits_current_distinct_counts(self):
        relation = Relation(Atom("r"), 3)
        relation.insert_many([term_row((i % 4, i % 7, i)) for i in range(40)])
        relation.stats_snapshot()  # the live profile exists from here on
        relation.insert_many([term_row((9, i, 100 + i)) for i in range(5)])
        clone = relation.freeze()
        assert clone.stats.profile.counts == (5, 7, 45)
        fresh = Relation(Atom("r"), 3)
        fresh.insert_many(list(relation.rows()))
        assert clone.stats_snapshot().distincts == fresh.stats_snapshot().distincts
        assert clone.stats.profile.column_values is None  # no rebuild ran

    def test_stale_live_profile_is_not_inherited(self):
        relation = Relation(Atom("r"), 2)
        relation.insert_many([term_row((i, i % 3)) for i in range(9)])
        relation.stats_snapshot()
        relation.delete(term_row((0, 0)))  # drops the live profile
        clone = relation.freeze()
        assert clone.stats.profile is None
        assert clone.stats_snapshot().distincts == (8, 3)

    @settings(deadline=None, max_examples=30)
    @given(
        first=st.lists(rows3, max_size=15),
        later=st.lists(st.lists(rows3, max_size=5), max_size=5),
    )
    def test_property_clone_counts_match_a_fresh_profile(self, first, later):
        relation = Relation(Atom("r"), 3)
        relation.insert_many([term_row(row) for row in first])
        relation.stats_snapshot()
        for batch in later:
            relation.insert_many([term_row(row) for row in batch])
            clone = relation.freeze()
            fresh = Relation(Atom("r"), 3)
            fresh.insert_many(list(relation.rows()))
            assert clone.stats_snapshot().distincts == fresh.stats_snapshot().distincts


COAUTHOR = "coauthor(A, B) :- wrote(A, P) & wrote(B, P) & A != B."


def run_commits(row_engine, commits=20):
    """A writer commits insert-only batches to ``wrote`` while a subscriber
    follows ``coauthor`` and a reader queries it; returns the server-wide
    counters and the columnar cache counts the commits added."""
    server = reference_server(row_engine=row_engine, port=0, program=COAUTHOR)
    with server.start():
        with Client(port=server.port, timeout=10.0) as writer, \
                Client(port=server.port, timeout=10.0) as watcher, \
                Client(port=server.port, timeout=10.0) as reader:
            writer.facts("wrote", [(f"a{i % 30}", f"p{i // 3}") for i in range(300)])
            sub = watcher.subscribe("coauthor", 2, snapshot=True)
            reader.query("coauthor(a1, B)?")
            ctx = server.db.columnar
            before = (ctx.hits, ctx.misses, ctx.extends)
            for n in range(commits):
                writer.begin()
                writer.facts("wrote", [(f"new{n}", f"q{n}"), (f"a{n}", f"q{n}")])
                writer.commit()
                assert sub.next(timeout=5.0).op == "insert"
                assert reader.query(f"coauthor(new{n}, B)?") == [(f"new{n}", f"a{n}")]
            after = (ctx.hits, ctx.misses, ctx.extends)
            counters = writer.stats()["server_counters"]
    return counters, tuple(b - a for a, b in zip(before, after))


class TestServerCommits:
    def test_commits_extend_tables_with_row_engine_counters(self):
        counters = {}
        for mode in ("row", "columnar"):
            counters[mode], cache = run_commits(mode == "row")
        hits, misses, extends = cache
        assert misses == 0, "a commit rebuilt a probe table"
        assert extends >= 20
        assert hits >= 20  # the reader, pinned at the version just extended
        # Index builds are the one known gap, and it is older than table
        # extension: the kernel cache is keyed by uid, which a frozen clone
        # shares with its live relation, so the reader's probe of the
        # clone hits the table the subscriber's repair built over the live
        # relation and never asks the clone for an index.  The row engine
        # builds one on every published clone it probes.
        index_fields = {"index_builds", "index_build_tuples"}
        row, col = (
            {k: counters[mode].get(k, 0) for k in COUNTER_FIELDS}
            for mode in ("row", "columnar")
        )
        assert {k: v for k, v in row.items() if k not in index_fields} == {
            k: v for k, v in col.items() if k not in index_fields
        }
        for field in index_fields:
            assert 0 < col[field] <= row[field]
