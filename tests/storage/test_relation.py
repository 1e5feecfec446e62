"""Unit tests for the Relation storage class."""

import pytest

from repro.storage.relation import Relation
from repro.storage.stats import CostCounters
from repro.terms.term import Atom, Compound, Num, Var


def rel(name="r", arity=2, **kwargs):
    return Relation(Atom(name), arity, **kwargs)


def row(*values):
    return tuple(Num(v) if isinstance(v, (int, float)) else Atom(v) for v in values)


class TestBasics:
    def test_insert_and_contains(self):
        r = rel()
        assert r.insert(row(1, 2))
        assert row(1, 2) in r
        assert len(r) == 1

    def test_duplicate_insert_returns_false(self):
        r = rel()
        r.insert(row(1, 2))
        assert not r.insert(row(1, 2))
        assert len(r) == 1

    def test_duplicates_counted(self):
        r = rel()
        r.insert(row(1, 2))
        r.insert(row(1, 2))
        assert r.counters.duplicate_inserts == 1

    def test_arity_checked(self):
        r = rel(arity=2)
        with pytest.raises(ValueError):
            r.insert(row(1,))

    def test_only_ground_tuples(self):
        r = rel(arity=1)
        with pytest.raises(ValueError):
            r.insert((Var("X"),))

    def test_only_terms(self):
        r = rel(arity=1)
        with pytest.raises(TypeError):
            r.insert((1,))

    def test_name_must_be_ground(self):
        with pytest.raises(ValueError):
            Relation(Var("X"), 1)

    def test_compound_relation_name(self):
        # HiLog set names are legal relation names.
        name = Compound(Atom("students"), (Atom("cs99"),))
        r = Relation(name, 1)
        assert r.name == name

    def test_delete(self):
        r = rel()
        r.insert(row(1, 2))
        assert r.delete(row(1, 2))
        assert not r.delete(row(1, 2))
        assert len(r) == 0

    def test_clear(self):
        r = rel()
        r.insert_many([row(1, 2), row(2, 3)])
        r.clear()
        assert len(r) == 0

    def test_replace(self):
        r = rel()
        r.insert(row(1, 2))
        r.replace([row(5, 6)])
        assert list(r.rows()) == [row(5, 6)]

    def test_insertion_order_preserved(self):
        r = rel()
        r.insert(row(2, 1))
        r.insert(row(1, 2))
        assert list(r.rows()) == [row(2, 1), row(1, 2)]

    def test_sorted_rows_canonical(self):
        r = rel()
        r.insert(row(2, 1))
        r.insert(row(1, 2))
        assert r.sorted_rows() == [row(1, 2), row(2, 1)]

    def test_delete_many_accepts_own_rows_iterator(self):
        r = rel()
        r.insert_many([row(1, 2), row(2, 3)])
        assert r.delete_many(r.rows()) == 2
        assert len(r) == 0

    def test_zero_arity_relation(self):
        r = rel(arity=0)
        assert r.insert(())
        assert () in r
        assert not r.insert(())


class TestVersioning:
    def test_version_bumps_on_mutation(self):
        r = rel()
        v0 = r.version
        r.insert(row(1, 2))
        assert r.version > v0

    def test_version_stable_on_noop(self):
        r = rel()
        r.insert(row(1, 2))
        v = r.version
        r.insert(row(1, 2))  # duplicate: no change
        r.delete(row(9, 9))  # absent: no change
        assert r.version == v

    def test_clear_empty_is_noop(self):
        r = rel()
        v = r.version
        r.clear()
        assert r.version == v

    def test_listener_called(self):
        events = []
        r = Relation(Atom("r"), 1, listener=lambda relation: events.append(relation.name))
        r.insert(row(1))
        assert events == [Atom("r")]

    @pytest.mark.parametrize("bulk", [False, True])
    def test_journal_sees_each_insert_after_the_version_moved(self, bulk):
        """An autocommitting journal hands each batch to commit observers at
        once; by then the relation's version must already count its rows."""
        r = rel()
        seen = []

        class Journal:
            def record_inserts(self, relation, rows):
                for inserted in rows:
                    seen.append((inserted, relation.version, inserted in relation))

        r.journal = Journal()
        rows = [row(1, 2), row(2, 3)]
        if bulk:
            r.insert_many(rows)
        else:
            for one in rows:
                r.insert(one)
        assert [inserted for inserted, _, _ in seen] == rows
        assert all(version > 0 and present for _, version, present in seen)


class TestSelect:
    def setup_method(self):
        self.r = rel()
        self.r.insert_many([row(1, 10), row(1, 20), row(2, 10)])

    def test_full_scan(self):
        results = list(self.r.select((Var("X"), Var("Y"))))
        assert len(results) == 3

    def test_bound_first_column(self):
        results = list(self.r.select((Num(1), Var("Y"))))
        assert sorted(b["Y"].value for b in results) == [10, 20]

    def test_bound_both(self):
        assert len(list(self.r.select((Num(1), Num(10))))) == 1
        assert len(list(self.r.select((Num(1), Num(99))))) == 0

    def test_with_base_bindings(self):
        results = list(self.r.select((Var("X"), Var("Y")), {"X": Num(2)}))
        assert len(results) == 1
        assert results[0]["Y"] == Num(10)

    def test_repeated_var(self):
        r = rel()
        r.insert_many([row(1, 1), row(1, 2)])
        results = list(r.select((Var("X"), Var("X"))))
        assert len(results) == 1
        assert results[0]["X"] == Num(1)

    def test_anonymous_vars(self):
        results = list(self.r.select((Var("_"), Var("_"))))
        assert all(b == {} for b in results)
        assert len(results) == 3

    def test_compound_pattern(self):
        r = Relation(Atom("t"), 1)
        inner = Compound(Atom("p"), (Num(3), Num(4)))
        r.insert((inner,))
        results = list(r.select((Compound(Atom("p"), (Var("X"), Var("Y"))),)))
        assert results == [{"X": Num(3), "Y": Num(4)}]

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            list(self.r.select((Var("X"),)))

    def test_count_matching(self):
        assert len(list(self.r.select((Num(1), Var("Y"))))) == 2


class TestIndexes:
    def test_build_and_probe(self):
        r = rel()
        r.insert_many([row(i % 5, i) for i in range(50)])
        r.build_index((0,))
        before = r.counters.tuples_scanned
        results = list(r.select((Num(3), Var("Y"))))
        assert len(results) == 10
        assert r.counters.tuples_scanned == before  # no scan: index used
        assert r.counters.index_lookups >= 1

    def test_index_maintained_on_insert_delete(self):
        r = rel()
        r.build_index((0,))
        r.insert(row(1, 2))
        assert len(list(r.select((Num(1), Var("Y"))))) == 1
        r.delete(row(1, 2))
        assert len(list(r.select((Num(1), Var("Y"))))) == 0

    def test_fully_bound_select_is_membership_test(self):
        r = rel()
        r.insert_many([row(i, i + 1) for i in range(10)])
        before = r.counters.tuples_scanned
        assert len(list(r.select((Num(3), Num(4))))) == 1
        assert len(list(r.select((Num(3), Num(99))))) == 0
        assert r.counters.tuples_scanned == before  # no scan at all

    def test_subset_index_usable(self):
        r = Relation(Atom("r"), 3)
        r.insert_many([row(i % 4, i, i % 2) for i in range(20)])
        r.build_index((0,))
        # Columns 0 and 2 bound, but the pattern's middle column is free:
        # the (0,) index narrows the probe.
        results = list(r.select((Num(3), Var("Y"), Num(1))))
        assert results
        assert r.counters.index_lookups >= 1

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            rel().build_index((5,))

    def test_same_select_results_with_and_without_index(self):
        plain = rel()
        indexed = rel()
        data = [row(i % 3, i % 4) for i in range(24)]
        plain.insert_many(data)
        indexed.insert_many(data)
        indexed.build_index((0,))
        for pattern in [(Num(1), Var("Y")), (Var("X"), Num(2)), (Num(0), Num(0))]:
            left = sorted(str(b) for b in plain.select(pattern))
            right = sorted(str(b) for b in indexed.select(pattern))
            assert left == right


class TestConcurrentAdaptiveIndexing:
    """Adaptive builds fire from read paths, which the query server runs
    concurrently; index creation/lookup must tolerate that (REVIEW)."""

    def test_parallel_selects_trigger_builds_without_errors(self):
        import threading

        from repro.storage.adaptive import AlwaysIndexPolicy

        rel = Relation(Atom("edge"), 2, index_policy=AlwaysIndexPolicy())
        for i in range(200):
            rel.insert((Num(i), Num(i + 1)))

        errors = []

        def reader(column):
            try:
                for i in range(200):
                    patterns = (
                        (Num(i), Var("Y")) if column == 0 else (Var("X"), Num(i))
                    )
                    list(rel.select(patterns))
            except Exception as exc:  # noqa: BLE001 - the race under test
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i % 2,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Both single-column indexes exist exactly once each.
        assert rel.index_columns == [(0,), (1,)]
        assert rel.counters.index_builds == 2


class TestChangeTracking:
    """Row-level change journal behind the engine's incremental repair."""

    def test_untracked_relation_reports_unknown(self):
        r = rel()
        r.insert(row(1, 2))
        assert r.changes_since(0) is None

    def test_net_inserts_after_version(self):
        r = rel()
        r.insert(row(1, 2))
        r.track_changes()
        v = r.version
        r.insert(row(2, 3))
        r.insert(row(3, 4))
        inserted, deleted = r.changes_since(v)
        assert set(inserted) == {row(2, 3), row(3, 4)}
        assert deleted == []

    def test_insert_delete_pairs_cancel(self):
        r = rel()
        r.track_changes()
        v = r.version
        r.insert(row(1, 2))
        r.delete(row(1, 2))
        assert r.changes_since(v) == ([], [])

    def test_delete_then_reinsert_cancels(self):
        r = rel()
        r.insert(row(1, 2))
        r.track_changes()
        v = r.version
        r.delete(row(1, 2))
        r.insert(row(1, 2))
        assert r.changes_since(v) == ([], [])

    def test_deletes_reported(self):
        r = rel()
        r.insert(row(1, 2))
        r.insert(row(2, 3))
        r.track_changes()
        v = r.version
        r.delete(row(1, 2))
        inserted, deleted = r.changes_since(v)
        assert inserted == []
        assert deleted == [row(1, 2)]

    def test_insert_new_batch_recorded(self):
        r = rel()
        r.insert(row(1, 2))
        r.track_changes()
        v = r.version
        new = r.insert_new([row(1, 2), row(2, 3), row(3, 4)])
        assert set(new) == {row(2, 3), row(3, 4)}
        inserted, deleted = r.changes_since(v)
        assert set(inserted) == {row(2, 3), row(3, 4)}
        assert deleted == []

    def test_clear_recorded_as_deletes(self):
        r = rel()
        r.insert(row(1, 2))
        r.track_changes()
        v = r.version
        r.clear()
        inserted, deleted = r.changes_since(v)
        assert inserted == []
        assert deleted == [row(1, 2)]

    def test_window_before_tracking_is_unknown(self):
        r = rel()
        r.insert(row(1, 2))
        v_before = r.version - 1
        r.track_changes()
        assert r.changes_since(v_before) is None

    def test_overflow_moves_horizon(self, monkeypatch):
        from repro.storage import relation as relation_module

        monkeypatch.setattr(relation_module, "MAX_CHANGELOG_ENTRIES", 4)
        log = relation_module.ChangeLog(horizon=0)
        for i in range(1, 8):
            log.record(i, "+", (row(i, i),))
        assert log.net_since(0) is None  # window rolled past version 0
        inserted, deleted = log.net_since(log.horizon)
        assert len(inserted) == 4 and deleted == []

    def test_fingerprint_distinguishes_redeclared_relation(self):
        a, b = rel(), rel()
        assert a.fingerprint != b.fingerprint  # fresh uid per instance
        fp = a.fingerprint
        a.insert(row(1, 2))
        assert a.fingerprint != fp
        assert a.fingerprint[0] == fp[0]

    def test_database_version_vector(self):
        from repro.storage.database import Database

        db = Database()
        db.fact("edge", 1, 2)
        ((key, relation),) = db.snapshot_relations()
        assert key == (Atom("edge"), 2)
        uid, version = relation.fingerprint
        db.fact("edge", 2, 3)
        assert relation.fingerprint == (uid, relation.version)
        assert relation.version > version


class GateAtom(Atom):
    """An atom whose hash can be made to block once: arms a one-shot gate
    so a test can freeze a profile rebuild mid-scan."""

    import threading as _threading

    armed = _threading.Event()
    reached = _threading.Event()
    release = _threading.Event()

    def __hash__(self):
        if GateAtom.armed.is_set():
            GateAtom.armed.clear()
            GateAtom.reached.set()
            GateAtom.release.wait(5)
        return super().__hash__()


class TestColumnProfileDeletePath:
    def test_delete_then_profile_rebuilds_correctly(self):
        r = rel()
        for i in range(5):
            r.insert(row(i, i % 2))
        assert r.column_profile() == (5, 2)
        r.delete(row(4, 0))
        assert r.column_profile() == (4, 2)
        # Insert-only growth after the rebuild takes the cheap replay path.
        r.insert(row(9, 9))
        assert r.column_profile() == (5, 3)

    def test_post_delete_rebuild_does_not_block_other_lock_users(self):
        """The O(rows) profile rebuild after a delete runs outside
        ``_index_lock``: while it is frozen mid-scan, an index build (which
        needs that lock) must still complete."""
        import threading

        r = rel()
        for i in range(10):
            r.insert((GateAtom(f"a{i}"), Num(i)))
        r.column_profile()
        r.delete((GateAtom("a9"), Num(9)))

        GateAtom.reached.clear()
        GateAtom.release.clear()
        distincts = []
        GateAtom.armed.set()
        profiler = threading.Thread(
            target=lambda: distincts.append(r.stats_snapshot().distincts)
        )
        profiler.start()
        try:
            assert GateAtom.reached.wait(5), "rebuild never reached the gate"
            # The profiler thread is parked inside its unlocked rebuild.
            built = threading.Event()

            def index_user():
                r.build_index((0,))
                built.set()

            user = threading.Thread(target=index_user)
            user.start()
            assert built.wait(2), "index build stalled behind the rebuild"
            user.join(5)
        finally:
            GateAtom.release.set()
        profiler.join(5)
        assert distincts == [(9, 9)]


class TestTrustedBulkInsert:
    """``insert_trusted`` -- the seminaive merge's load path -- skips the
    per-value re-check and nothing else: everything that watches a relation
    sees one batch, exactly as ``insert_new`` would show it."""

    class Journal:
        def __init__(self):
            self.inserted = []

        def record_inserts(self, relation, rows):
            self.inserted.extend(rows)

    def test_matches_insert_new_on_rows_order_and_counters(self):
        batch = [row(3, 4), row(1, 2), row(3, 4), row(5, 6), row(1, 2)]
        outcomes = []
        for method in ("insert_new", "insert_trusted"):
            counters = CostCounters()
            r = rel(counters=counters)
            r.insert(row(5, 6))
            new = getattr(r, method)(list(batch))
            outcomes.append((new, list(r.rows()), counters.as_tuple(), r.version))
        assert outcomes[0] == outcomes[1]
        new, stored, _counters, _version = outcomes[1]
        assert new == [row(3, 4), row(1, 2)]  # first-occurrence order, no repeats
        assert stored == [row(5, 6), row(3, 4), row(1, 2)]

    def test_one_version_bump_listener_call_and_changelog_entry(self):
        calls = []
        r = rel(listener=calls.append)
        r.track_changes()
        v = r.version
        r.insert_trusted([row(1, 2), row(2, 3), row(1, 2)])
        assert r.version == v + 1
        assert calls == [r]
        assert len(r._changelog.entries) == 1
        assert r.changes_since(v) == ([row(1, 2), row(2, 3)], [])
        r.insert_trusted([row(1, 2)])  # nothing new: nothing announced
        assert r.version == v + 1 and calls == [r]

    def test_indexes_journal_and_profile_stay_current(self):
        r = rel()
        r.insert(row(1, 2))
        index = r.build_index((0,))
        assert r.column_profile() == (1, 1)
        r.journal = self.Journal()
        r.insert_trusted([row(1, 3), row(2, 3), row(1, 2)])
        assert index.bucket((Num(1),)) == [row(1, 2), row(1, 3)]
        assert index.bucket((Num(2),)) == [row(2, 3)]
        assert r.journal.inserted == [row(1, 3), row(2, 3)]
        assert r.column_profile() == (2, 2)
        assert r.stats.profile.version == r.version  # refreshed, not rebuilt

    def test_profile_fed_from_distinct_column_values(self):
        r = rel()
        r.insert(row(1, 2))
        r.column_profile()
        fed = iter([[Num(7), Num(8)], [Num(9)]])
        r.insert_trusted([row(7, 9), row(8, 9)], column_values=fed)
        assert r.column_profile() == (3, 2)

    def test_frozen_clone_is_copied_on_write_and_refuses_writes(self):
        r = rel()
        r.insert(row(1, 2))
        frozen = r.freeze()
        r.insert_trusted([row(2, 3)])
        assert list(frozen.rows()) == [row(1, 2)]
        assert list(r.rows()) == [row(1, 2), row(2, 3)]
        assert r.freeze() is not frozen
        with pytest.raises(ValueError):
            frozen.insert_trusted([row(9, 9)])

    def test_insert_new_validates_the_whole_batch_first(self):
        r = rel()
        with pytest.raises(ValueError):
            r.insert_new([row(1, 2), (Num(1), Var("X"))])
        assert len(r) == 0 and r.version == 0


class TestBulkDelete:
    """``delete_many`` is the one path that removes rows: one batch, like
    ``insert_trusted``, whatever calls it."""

    class Journal:
        def __init__(self):
            self.deleted = []

        def record_deletes(self, relation, rows):
            self.deleted.append(list(rows))

    def test_one_version_bump_listener_call_changelog_entry_and_journal_call(self):
        calls = []
        r = rel(listener=calls.append)
        r.insert_new([row(i, i + 1) for i in range(5)])
        r.track_changes()
        r.journal = self.Journal()
        v = r.version
        assert r.delete_many([row(1, 2), row(3, 4), row(1, 2), row(9, 9)]) == 2
        assert r.version == v + 1
        assert calls == [r, r]
        assert len(r._changelog.entries) == 1
        assert r.changes_since(v) == ([], [row(1, 2), row(3, 4)])
        assert r.journal.deleted == [[row(1, 2), row(3, 4)]]
        assert r.counters.deletes == 2
        assert list(r.rows()) == [row(0, 1), row(2, 3), row(4, 5)]

    def test_indexes_follow_a_partial_and_a_total_delete(self):
        r = rel()
        r.insert_new([row(1, 2), row(1, 3), row(2, 3), row(1, 4)])
        index = r.build_index((0,))
        r.delete_many([row(1, 3), row(2, 3)])
        assert index.bucket((Num(1),)) == [row(1, 2), row(1, 4)]
        assert index.bucket((Num(2),)) == ()
        r.clear()
        assert len(r) == 0 and len(index) == 0

    def test_copy_on_write_only_when_a_row_changes(self):
        r = rel()
        r.insert_new([row(1, 2), row(2, 3)])
        frozen = r.freeze()
        r.insert(row(1, 2))
        r.insert_new([row(2, 3), row(1, 2)])
        r.delete(row(9, 9))
        r.delete_many([row(8, 8), row(9, 9)])
        assert r._rows is frozen._rows
        assert r.version == frozen.version
        r.clear()  # every row goes: nothing to copy, the clone keeps its rows
        assert list(frozen.rows()) == [row(1, 2), row(2, 3)]
        assert len(r) == 0
        with pytest.raises(ValueError):
            frozen.delete_many([row(1, 2)])
