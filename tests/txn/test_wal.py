"""WAL format and replay: committed batches in, exactly those back out."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.database import Database
from repro.storage.persist import apply_op
from repro.terms.term import Atom, Num
from repro.txn.wal import WAL_HEADER, WriteAheadLog, format_op, replay_wal


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "wal.log")


class TestFormat:
    def test_op_lines_are_fact_syntax(self):
        assert format_op(("insert", Atom("edge"), (Num(1), Num(2)))) == "+ edge(1, 2)."
        assert format_op(("delete", Atom("edge"), (Num(1), Num(2)))) == "- edge(1, 2)."
        assert format_op(("declare", Atom("marker"), 0)) == "% rel marker / 0"
        assert format_op(("drop", Atom("scratch"), 2)) == "% drop scratch / 2"

    def test_log_is_human_readable(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_commit([("insert", Atom("edge"), (Num(1), Num(2)))])
        wal.close()
        with open(wal_path) as handle:
            text = handle.read()
        assert text.splitlines()[0] == WAL_HEADER
        assert "+ edge(1, 2)." in text
        assert "% commit 1" in text


class TestReplay:
    def test_round_trip(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_commit([
            ("declare", Atom("empty_rel"), 3),
            ("insert", Atom("edge"), (Num(1), Num(2))),
            ("insert", Atom("edge"), (Num(2), Num(3))),
        ])
        wal.append_commit([("delete", Atom("edge"), (Num(1), Num(2)))])
        wal.close()
        db = Database()
        txns, ops = replay_wal(wal_path, db)
        assert (txns, ops) == (2, 4)
        assert db.get("edge", 2).sorted_rows() == [(Num(2), Num(3))]
        assert db.exists("empty_rel", 3)

    def test_drop_replays(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_commit([("insert", Atom("scratch"), (Num(1),))])
        wal.append_commit([("drop", Atom("scratch"), 1)])
        wal.close()
        db = Database()
        replay_wal(wal_path, db)
        assert not db.exists("scratch", 1)

    def test_batch_without_commit_marker_is_skipped(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_commit([("insert", Atom("edge"), (Num(1), Num(2)))])
        wal.close()
        # Simulate a crash mid-commit: ops appended, no commit marker.
        with open(wal_path, "a") as handle:
            handle.write("% txn 2\n+ edge(8, 8).\n+ edge(9, 9).\n")
        db = Database()
        txns, _ = replay_wal(wal_path, db)
        assert txns == 1
        assert len(db.get("edge", 2)) == 1

    def test_torn_final_line_is_skipped(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_commit([("insert", Atom("edge"), (Num(1), Num(2)))])
        wal.close()
        with open(wal_path, "a") as handle:
            handle.write("% txn 2\n+ edge(9")  # torn mid-write, no newline
        db = Database()
        txns, _ = replay_wal(wal_path, db)
        assert txns == 1
        assert len(db.get("edge", 2)) == 1

    def test_replay_is_idempotent(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_commit([("insert", Atom("edge"), (Num(1), Num(2)))])
        wal.close()
        db = Database()
        replay_wal(wal_path, db)
        replay_wal(wal_path, db)  # e.g. crash between checkpoint and truncate
        assert len(db.get("edge", 2)) == 1

    def test_replay_does_not_relog_into_attached_journal(self, wal_path):
        from repro.txn.manager import TransactionManager

        wal = WriteAheadLog(wal_path)
        wal.append_commit([("insert", Atom("edge"), (Num(1), Num(2)))])
        wal.close()
        db = Database()
        sink = WriteAheadLog(str(wal_path) + ".second")
        manager = TransactionManager(db, sink)
        db.attach_journal(manager)
        replay_wal(wal_path, db)
        assert sink.commits == 0
        assert db.journal is manager  # restored after replay
        sink.close()

    def test_reset_truncates(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_commit([("insert", Atom("edge"), (Num(1), Num(2)))])
        wal.reset()
        db = Database()
        assert replay_wal(wal_path, db) == (0, 0)
        # The log is still appendable after a reset.
        wal.append_commit([("insert", Atom("edge"), (Num(5), Num(6)))])
        wal.close()
        db2 = Database()
        replay_wal(wal_path, db2)
        assert db2.get("edge", 2).sorted_rows() == [(Num(5), Num(6))]

    def test_quoted_atoms_round_trip(self, wal_path):
        wal = WriteAheadLog(wal_path)
        row = (Atom("hello world"), Atom("it's"))
        wal.append_commit([("insert", Atom("msg"), row)])
        wal.close()
        db = Database()
        replay_wal(wal_path, db)
        assert row in db.get("msg", 2)

    def test_arity_zero_round_trip(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_commit([("insert", Atom("flag"), ())])
        wal.close()
        db = Database()
        replay_wal(wal_path, db)
        assert () in db.get("flag", 0)

    def test_empty_batch_writes_nothing(self, wal_path):
        wal = WriteAheadLog(wal_path)
        assert wal.append_commit([]) is None
        wal.close()
        assert os.path.getsize(wal_path) == len(WAL_HEADER) + 1


# Ops over r/1, r/2 (one name, two arities) and s/1 with few values, so
# scripts re-insert, delete, drop and re-create the same rows.
_RELATIONS = [(Atom("r"), 1), (Atom("r"), 2), (Atom("s"), 1)]
_values = st.sampled_from([Num(0), Num(1), Atom("a"), Num(2.0)])


@st.composite
def _ops(draw):
    name, arity = draw(st.sampled_from(_RELATIONS))
    kind = draw(st.sampled_from(["insert"] * 4 + ["delete"] * 2 + ["declare", "drop"]))
    if kind in ("declare", "drop"):
        return (kind, name, arity)
    return (kind, name, tuple(draw(_values) for _ in range(arity)))


# (ops, how the batch ends): "commit", "open" (no commit marker, the next
# batch starts over it) or "torn" (a half-written op line, then no marker).
_batches = st.lists(st.tuples(st.lists(_ops(), max_size=8),
                              st.sampled_from(["commit"] * 4 + ["open", "torn"])),
                    max_size=8)


class TestBatchedReplay:
    @given(_batches)
    @settings(max_examples=200, deadline=None)
    def test_replay_equals_applying_each_committed_op(self, tmp_path_factory, batches):
        """Held-back insert batches leave the catalog, each relation's rows
        in order, and the work counters as applying every committed op
        one at a time does."""
        path = str(tmp_path_factory.mktemp("wal") / "wal.log")
        reference = Database()
        lines = [WAL_HEADER]
        for tid, (ops, end) in enumerate(batches, start=1):
            lines.append(f"% txn {tid}")
            lines.extend(format_op(op) for op in ops)
            if end == "commit":
                lines.append(f"% commit {tid}")
                for op in ops:
                    apply_op(reference, op)
            elif end == "torn":
                lines.append("+ r(1")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        replayed = Database()
        committed = [ops for ops, end in batches if end == "commit"]
        assert replay_wal(path, replayed) == (len(committed), sum(map(len, committed)))
        assert list(replayed.keys()) == list(reference.keys())
        for key, relation in reference.items():
            assert list(replayed.get(*key).rows()) == list(relation.rows())
        assert replayed.counters.snapshot() == reference.counters.snapshot()

    def test_an_insert_run_is_one_batch_per_relation(self, wal_path):
        wal = WriteAheadLog(wal_path, sync=False)
        for i in range(5):
            wal.append_commit([("insert", Atom("edge"), (Num(i), Num(i + 1))),
                               ("insert", Atom("node"), (Num(i),))])
        wal.close()
        db = Database()
        assert replay_wal(wal_path, db) == (5, 10)
        assert db.get("edge", 2).version == db.get("node", 1).version == 1


class TestBatchedRollback:
    @given(st.lists(_ops(), max_size=8), st.lists(_ops(), max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_rollback_restores_the_state_before_begin(self, setup, ops):
        """Batched undo leaves the catalog and every relation's rows as they
        were before ``begin``, and each relation still in the catalog nets
        to no change since then, so caches keyed on it stay valid."""
        db = Database()
        for op in setup:
            apply_op(db, op)
        manager = db.transactions()
        before = {}
        for key, relation in db.items():
            relation.track_changes()
            before[key] = (relation, relation.version, set(relation.rows()))
        manager.begin()
        for op in ops:
            apply_op(db, op)
        manager.rollback()
        assert set(db.keys()) == set(before)
        for key, (relation, version, rows) in before.items():
            now = db.get(*key)
            assert set(now.rows()) == rows
            if now is relation:  # not dropped and restored as a new object
                assert relation.changes_since(version) == ([], [])


class TestTidContinuity:
    def test_tids_continue_across_reopen(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_commit([("insert", Atom("edge"), (Num(1), Num(2)))])
        wal.append_commit([("insert", Atom("edge"), (Num(2), Num(3)))])
        wal.close()
        reopened = WriteAheadLog(wal_path)
        tid = reopened.append_commit([("insert", Atom("edge"), (Num(3), Num(4)))])
        reopened.close()
        assert tid == 3
        with open(wal_path) as handle:
            text = handle.read()
        assert text.count("% txn 1") == 1  # never reused

    def test_tids_continue_past_reset(self, wal_path):
        wal = WriteAheadLog(wal_path)
        wal.append_commit([("insert", Atom("edge"), (Num(1), Num(2)))])
        wal.reset()
        tid = wal.append_commit([("insert", Atom("edge"), (Num(2), Num(3)))])
        wal.close()
        assert tid == 2


class TestCommitDurability:
    def insert(self, i):
        return [("insert", Atom("edge"), (Num(i), Num(i + 1)))]

    def test_serial_commits_fsync_once_each(self, wal_path):
        wal = WriteAheadLog(wal_path)
        header_syncs = wal.fsyncs  # the fresh-log header flush
        for i in range(5):
            wal.append_commit(self.insert(i))
        assert wal.fsyncs == header_syncs + 5
        wal.close()

    def test_sync_false_never_fsyncs(self, wal_path):
        wal = WriteAheadLog(wal_path, sync=False)
        for i in range(5):
            wal.append_commit(self.insert(i))
        assert wal.fsyncs == 0
        wal.close()

    def test_concurrent_commits_each_fsync_and_all_survive(self, wal_path):
        """Commits are serial: concurrent committers each pay their own
        fsync, and every batch replays."""
        import threading

        wal = WriteAheadLog(wal_path)
        header_syncs = wal.fsyncs
        threads_n, per_thread = 8, 10
        start = threading.Barrier(threads_n)

        def worker(base):
            start.wait()
            for i in range(per_thread):
                wal.append_commit(self.insert(base * 1000 + i))

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = threads_n * per_thread
        assert wal.commits == total
        assert wal.fsyncs - header_syncs == total
        wal.close()
        db = Database()
        txns, ops = replay_wal(wal_path, db)
        assert (txns, ops) == (total, total)
        assert len(db.get("edge", 2)) == total

    def test_failed_fsync_cuts_the_batch_off(self, wal_path, monkeypatch):
        wal = WriteAheadLog(wal_path)
        wal.append_commit(self.insert(1))
        size = os.path.getsize(wal_path)
        real_fsync = os.fsync

        def failing_fsync(fd):
            monkeypatch.setattr(os, "fsync", real_fsync)
            raise OSError("injected fsync failure")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="injected"):
            wal.append_commit(self.insert(2))
        assert os.path.getsize(wal_path) == size
        assert wal.commits == 1
        wal.append_commit(self.insert(3))
        wal.close()
        db = Database()
        assert replay_wal(wal_path, db) == (2, 2)
        assert db.get("edge", 2).sorted_rows() == [(Num(1), Num(2)), (Num(3), Num(4))]
