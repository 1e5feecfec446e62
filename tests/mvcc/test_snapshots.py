"""MVCC snapshot reads: copy-on-write freezing, the version store's
publish/pin protocol, the snapshot router, and the differential property
that a pinned snapshot's answers never change while writers commit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import GlueNailSystem
from repro.mvcc.router import SnapshotRouter
from repro.mvcc.store import VersionStore
from repro.storage.relation import Relation
from repro.storage.stats import COUNTER_FIELDS
from repro.terms.term import mk

PATH_RULES = "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y) & edge(Y, Z)."

# Counter positions that must stay bit-identical across repeated snapshot
# queries (everything except the snapshot bookkeeping itself, which by
# design ticks once per pinned read).
_STABLE = tuple(
    i for i, name in enumerate(COUNTER_FIELDS) if not name.startswith("snapshot_")
)


def lift(*values):
    return tuple(mk(v) for v in values)


def stable_counters(system):
    snapshot = system.counters.as_tuple()
    return tuple(snapshot[i] for i in _STABLE)


class TestFreeze:
    def rel(self, rows=((1, 2), (2, 3))):
        rel = Relation(mk("edge"), 2)
        for row in rows:
            rel.insert(lift(*row))
        return rel

    def test_frozen_clone_is_immutable(self):
        frozen = self.rel().freeze()
        with pytest.raises(ValueError):
            frozen.insert(lift(9, 9))
        with pytest.raises(ValueError):
            frozen.delete(lift(1, 2))
        with pytest.raises(ValueError):
            frozen.clear()

    def test_mutating_live_does_not_change_the_clone(self):
        live = self.rel()
        frozen = live.freeze()
        live.insert(lift(3, 4))
        live.delete(lift(1, 2))
        assert frozen.sorted_rows() == [lift(1, 2), lift(2, 3)]
        assert live.sorted_rows() == [lift(2, 3), lift(3, 4)]

    def test_clone_shares_uid_and_version_with_the_live_relation(self):
        live = self.rel()
        frozen = live.freeze()
        # Same fingerprint => version-keyed caches (incremental IDB,
        # columnar kernels) treat the snapshot as live-at-that-version.
        assert frozen.fingerprint == live.fingerprint
        live.insert(lift(3, 4))
        assert frozen.fingerprint != live.fingerprint

    def test_freeze_is_cached_until_the_next_mutation(self):
        live = self.rel()
        first = live.freeze()
        assert live.freeze() is first
        live.insert(lift(3, 4))
        assert live.freeze() is not first


class TestVersionStore:
    def system(self):
        system = GlueNailSystem().load(PATH_RULES)
        system.facts("edge", [(1, 2), (2, 3)])
        return system

    def test_pin_outside_a_window_snapshots_now(self):
        system = self.system()
        store = VersionStore(system.db)
        snap = store.pin()
        assert snap is not None
        assert snap.db_version == system.db.version
        assert snap.get("edge", 2).sorted_rows() == [lift(1, 2), lift(2, 3)]
        assert system.counters.snapshot_pins == 1

    def test_pin_inside_a_window_serves_the_previous_version(self):
        system = self.system()
        store = VersionStore(system.db)
        before = store.pin()
        store.begin_window()
        system.facts("edge", [(3, 4)])
        mid = store.pin()
        assert mid is before, "mid-window pins see the last published state"
        assert mid.get("edge", 2).sorted_rows() == [lift(1, 2), lift(2, 3)]
        store.publish()
        after = store.pin()
        assert after is not before
        assert len(after.get("edge", 2)) == 3

    def test_store_publishes_when_created(self):
        # A window opened before any pin still has a snapshot to serve:
        # the state the store was created over.
        system = self.system()
        store = VersionStore(system.db)
        assert store.stats()["publishes"] == 1
        store.begin_window()
        system.facts("edge", [(3, 4)])
        assert store.pin().get("edge", 2).sorted_rows() == [lift(1, 2), lift(2, 3)]
        store.publish()
        assert len(store.pin().get("edge", 2)) == 3

    def test_stats_shape(self):
        store = VersionStore(self.system().db)
        store.pin()
        stats = store.stats()
        assert stats["published_relations"] >= 1
        assert stats["publishes"] >= 1
        assert stats["window_open"] is False


class TestSnapshotRouter:
    def pinned_router(self):
        system = GlueNailSystem()
        system.facts("edge", [(1, 2)])
        store = system.enable_snapshots()
        router = system.db
        assert isinstance(router, SnapshotRouter)
        return system, router, store

    def test_pinned_reads_resolve_against_the_snapshot(self):
        system, router, store = self.pinned_router()
        snap = store.pin()
        system.facts("edge", [(2, 3)])
        with router.pinned(snap):
            assert router.snapshot_active
            assert router.version == snap.db_version
            assert len(router.get("edge", 2)) == 1
            assert router.total_rows() == 1
        assert not router.snapshot_active
        assert len(router.get("edge", 2)) == 2

    def test_relations_born_after_the_snapshot_read_as_empty(self):
        system, router, store = self.pinned_router()
        snap = store.pin()
        system.facts("fresh", [(7,)])
        with router.pinned(snap):
            placeholder = router.get("fresh", 1)
            assert placeholder is not None and len(placeholder) == 0
            with pytest.raises(ValueError):
                placeholder.insert(lift(8))  # snapshots never absorb writes
            assert ("fresh", 1) not in router
        assert len(router.get("fresh", 1)) == 1

    def test_mutations_always_land_on_the_live_database(self):
        system, router, store = self.pinned_router()
        snap = store.pin()
        with router.pinned(snap):
            system.facts("edge", [(5, 6)])
            assert len(router.get("edge", 2)) == 1, "pin still reads v0"
        assert len(router.get("edge", 2)) == 2


class TestSystemSnapshots:
    def test_enable_snapshots_is_idempotent(self):
        system = GlueNailSystem()
        store = system.enable_snapshots()
        assert system.enable_snapshots() is store

    def test_snapshot_query_is_isolated_and_counted(self):
        system = GlueNailSystem().load(PATH_RULES)
        system.facts("edge", [(1, 2), (2, 3)])
        system.enable_snapshots()
        with system.snapshot():
            system.facts("edge", [(3, 4)])  # a "concurrent" writer
            result = system.query("path(1, X)?")
            assert set(result) == {lift(1, 2), lift(1, 3)}
            assert result.stats.counters["snapshot_reads"] == 1
        assert set(system.query("path(1, X)?")) == {
            lift(1, 2), lift(1, 3), lift(1, 4),
        }


class TestDifferential:
    """Satellite: a pinned snapshot's query results -- rows AND cost
    counters -- are bit-identical before, during, and after concurrent
    writer commits; subscriptions agree on versions; rollbacks are
    invisible."""

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=1,
            max_size=12,
        ),
        batches=st.lists(
            st.lists(
                st.tuples(
                    st.booleans(),  # True = insert, False = delete
                    st.integers(0, 6),
                    st.integers(0, 6),
                ),
                min_size=1,
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(deadline=None, max_examples=20)
    def test_pinned_answers_never_move(self, edges, batches):
        system = GlueNailSystem().load(PATH_RULES)
        system.enable_transactions()
        system.facts("edge", edges)
        store = system.enable_snapshots()
        notes = []
        sub = system.subscribe(
            "edge", 2, callback=lambda note: notes.append(note)
        )

        snap = store.pin()
        with system.db.pinned(snap):
            baseline = set(system.query("path(X, Y)?"))
            # Second run hits the incremental-IDB cache; its counter
            # delta is the steady-state cost every later re-query under
            # this pin must reproduce exactly.
            before = stable_counters(system)
            assert set(system.query("path(X, Y)?")) == baseline
            steady = tuple(
                b - a for a, b in zip(before, stable_counters(system))
            )

        for batch in batches:
            system.begin()
            for insert, a, b in batch:
                if insert:
                    system.fact("edge", a, b)
                else:
                    system.db.relation(mk("edge"), 2).delete(lift(a, b))
            system.commit()
            with system.db.pinned(snap):
                before = stable_counters(system)
                assert set(system.query("path(X, Y)?")) == baseline
                delta = tuple(
                    b - a for a, b in zip(before, stable_counters(system))
                )
                assert delta == steady, "writer commits changed pinned costs"

        # Rolled-back work is invisible everywhere: snapshot, live, subs.
        live_before = set(system.query("path(X, Y)?"))
        seen_notes = len(notes)
        system.begin()
        system.facts("edge", [(5, 0), (6, 1)])
        system.rollback()
        assert set(system.query("path(X, Y)?")) == live_before
        assert len(notes) == seen_notes
        with system.db.pinned(snap):
            assert set(system.query("path(X, Y)?")) == baseline

        # Every committed notification is stamped with a published version
        # a reader could actually pin, and seqs are consecutive.
        assert [note.seq for note in notes] == list(range(1, len(notes) + 1))
        fresh = store.pin()
        for note in notes:
            assert 0 < note.version <= fresh.db_version
            assert note.payload()["version"] == note.version
        if notes:
            assert sub.version == notes[-1].version
