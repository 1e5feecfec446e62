"""DurableStore: open-with-recovery, checkpointing, and crash survival."""

import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import pytest

from repro.terms.term import Num
from repro.txn.store import DurableStore

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def reopen(directory):
    return DurableStore(str(directory))


@pytest.fixture
def fail_next_fsync(monkeypatch):
    """Arm a one-shot fsync failure: the next fsync made while ``when()``
    holds raises (by default the very next one)."""
    real_fsync = os.fsync

    def failing_fsync(fd, when):
        if not when():
            return real_fsync(fd)
        monkeypatch.setattr(os, "fsync", real_fsync)
        raise OSError("injected fsync failure")

    def arm(when=lambda: True):
        monkeypatch.setattr(os, "fsync", lambda fd: failing_fsync(fd, when))

    return arm


class TestAutocommit:
    def test_mutations_survive_reopen(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.db.facts("edge", [(1, 2), (2, 3)])
        store.close()
        fresh = reopen(tmp_path)
        assert len(fresh.db.get("edge", 2)) == 2
        assert fresh.recovered_txns > 0
        fresh.close()

    def test_deletes_survive_reopen(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.db.facts("edge", [(1, 2), (2, 3)])
        store.db.get("edge", 2).delete((Num(1), Num(2)))
        store.close()
        fresh = reopen(tmp_path)
        assert fresh.db.get("edge", 2).sorted_rows() == [(Num(2), Num(3))]
        fresh.close()

    def test_bulk_insert_is_one_commit_and_one_fsync(self, tmp_path):
        store = DurableStore(str(tmp_path))
        edge = store.db.declare("edge", 2)
        commits, fsyncs = store.wal.commits, store.wal.fsyncs
        assert len(edge.insert_new([(Num(n), Num(n + 1)) for n in range(4)])) == 4
        assert (store.wal.commits - commits, store.wal.fsyncs - fsyncs) == (1, 1)
        store.close()
        fresh = reopen(tmp_path)
        assert len(fresh.db.get("edge", 2)) == 4
        fresh.close()


def _system(directory, durable=True):
    from repro.core.system import GlueNailSystem

    system = GlueNailSystem.open(directory) if durable else GlueNailSystem()
    return system.facts, system.db, system.store, system.close


def _store(directory):
    store = DurableStore(directory)
    return store.db.facts, store.db, store, store.close


# Each opener returns (facts, db, durable store or None, close).
FACTS_ENTRY_POINTS = {
    "system_open": _system,
    "embedded_system": lambda directory: _system(directory, durable=False),
    "durable_store": _store,
}


def rows_of(db, name, arity):
    relation = db.get(name, arity)
    return [] if relation is None else relation.sorted_rows()


class TestFactsBatch:
    """One ``facts`` call outside a transaction is one batch, whichever
    way it comes in."""

    @pytest.fixture(params=sorted(FACTS_ENTRY_POINTS))
    def open_entry(self, request, tmp_path):
        return lambda: FACTS_ENTRY_POINTS[request.param](str(tmp_path))

    def test_failing_row_leaves_nothing(self, open_entry):
        facts, db, store, close = open_entry()
        with pytest.raises(TypeError):
            facts("p", [[1], [None]])
        assert rows_of(db, "p", 1) == []
        close()
        if store is not None:
            _, fresh, _, close = open_entry()
            assert rows_of(fresh, "p", 1) == []
            close()

    def test_one_wal_commit_and_one_notification(self, open_entry):
        facts, db, store, close = open_entry()
        seen = []
        if store is not None:
            store.txn.add_observer(SimpleNamespace(on_commit=lambda tid, ops: seen.append(ops)))
            commits, fsyncs = store.wal.commits, store.wal.fsyncs
        assert facts("edge", [(i, i + 1) for i in range(250)]) == 250
        assert len(rows_of(db, "edge", 2)) == 250
        if store is not None:
            assert store.wal.commits == commits + 1
            assert store.wal.fsyncs == fsyncs + 1
            assert len(seen) == 1
        close()
        if store is not None:
            _, fresh, _, close = open_entry()
            assert len(rows_of(fresh, "edge", 2)) == 250
            close()


class TestFailedCommit:
    """A commit the WAL cannot make durable ends its transaction and
    leaves nothing behind, in memory or on disk."""

    def assert_nothing_left(self, store, directory):
        assert not store.txn.in_transaction
        assert rows_of(store.db, "edge", 2) == []
        store.txn.begin()
        store.txn.rollback()
        store.close()
        fresh = reopen(directory)
        assert rows_of(fresh.db, "edge", 2) == []
        fresh.close()

    def test_transaction_commit(self, tmp_path, fail_next_fsync):
        store = DurableStore(str(tmp_path))
        store.txn.begin()
        store.db.fact("edge", 1, 2)
        fail_next_fsync()
        with pytest.raises(OSError, match="injected"):
            store.txn.commit()
        self.assert_nothing_left(store, tmp_path)

    def test_autocommit_fact(self, tmp_path, fail_next_fsync):
        store = DurableStore(str(tmp_path))
        store.db.declare("edge", 2)
        fail_next_fsync()
        with pytest.raises(OSError, match="injected"):
            store.db.fact("edge", 1, 2)
        self.assert_nothing_left(store, tmp_path)

    def test_autocommit_bulk_insert(self, tmp_path, fail_next_fsync):
        store = DurableStore(str(tmp_path))
        edge = store.db.declare("edge", 2)
        fail_next_fsync()
        with pytest.raises(OSError, match="injected"):
            edge.insert_new([(Num(n), Num(n + 1)) for n in range(4)])
        self.assert_nothing_left(store, tmp_path)

    def test_autocommit_bulk_delete(self, tmp_path, fail_next_fsync):
        rows = [(Num(n), Num(n + 1)) for n in range(4)]
        store = DurableStore(str(tmp_path))
        edge = store.db.declare("edge", 2)
        edge.insert_new(rows)
        # Fail the fsync made once row 1 is gone; were each row its own
        # commit, this would be the second fsync of the delete.
        fail_next_fsync(when=lambda: rows[1] not in edge)
        with pytest.raises(OSError, match="injected"):
            edge.delete_many(rows)
        assert rows_of(store.db, "edge", 2) == rows
        store.close()
        store = reopen(tmp_path)
        assert rows_of(store.db, "edge", 2) == rows
        commits, fsyncs = store.wal.commits, store.wal.fsyncs
        assert store.db.get("edge", 2).delete_many(rows) == 4
        assert (store.wal.commits - commits, store.wal.fsyncs - fsyncs) == (1, 1)
        self.assert_nothing_left(store, tmp_path)


class TestReplace:
    """``Relation.replace`` outside a transaction clears and refills as one
    implicit transaction: one WAL commit, and the old rows or the new."""

    OLD = [(Num(1), Num(2)), (Num(2), Num(3))]
    NEW = (Num(7), Num(8))

    def open_store(self, directory):
        store = DurableStore(str(directory))
        edge = store.db.declare("edge", 2)
        edge.insert_new(self.OLD)
        return store, edge

    def test_one_commit_and_one_fsync(self, tmp_path):
        store, edge = self.open_store(tmp_path)
        commits, fsyncs = store.wal.commits, store.wal.fsyncs
        edge.replace([self.NEW])
        assert (store.wal.commits - commits, store.wal.fsyncs - fsyncs) == (1, 1)
        store.close()
        fresh = reopen(tmp_path)
        assert rows_of(fresh.db, "edge", 2) == [self.NEW]
        fresh.close()

    def test_a_failed_fsync_keeps_the_old_rows(self, tmp_path, fail_next_fsync):
        store, edge = self.open_store(tmp_path)
        # Fail the fsync that would make the new row durable; were the clear
        # its own commit, this would be the second fsync of the replace.
        fail_next_fsync(when=lambda: self.NEW in edge)
        with pytest.raises(OSError, match="injected"):
            edge.replace([self.NEW])
        assert rows_of(store.db, "edge", 2) == self.OLD
        store.close()
        fresh = reopen(tmp_path)
        assert rows_of(fresh.db, "edge", 2) == self.OLD
        fresh.close()


class TestWritingCall:
    """A Glue call that writes is one implicit transaction: one WAL
    commit, and all of its rows or none."""

    PROGRAM = """
        proc copy(:)
          p(A, B) += e(A, B).
          return(:) := true.
        end
    """

    def open_system(self, directory):
        from repro.core.system import GlueNailSystem

        system = GlueNailSystem.open(str(directory))
        system.load(self.PROGRAM)
        system.facts("e", [(n, n + 1) for n in range(50)])
        return system

    def test_fifty_rows_are_one_commit_and_one_fsync(self, tmp_path):
        system = self.open_system(tmp_path)
        wal = system.store.wal
        commits, fsyncs = wal.commits, wal.fsyncs
        system.call("copy")
        assert (wal.commits - commits, wal.fsyncs - fsyncs) == (1, 1)
        assert len(rows_of(system.db, "p", 2)) == 50
        system.close()

    def test_a_failed_fsync_leaves_no_row_live_or_logged(self, tmp_path, fail_next_fsync):
        system = self.open_system(tmp_path)
        fail_next_fsync()
        with pytest.raises(OSError, match="injected"):
            system.call("copy")
        assert not system.txn.in_transaction
        assert rows_of(system.db, "p", 2) == []
        system.close()
        fresh = reopen(tmp_path)
        assert rows_of(fresh.db, "p", 2) == []
        fresh.close()


class TestImplicitScriptTransaction:
    """The loose statements of a script are one implicit transaction too."""

    def test_twenty_rows_are_one_commit_and_one_fsync(self, tmp_path):
        from repro.core.system import GlueNailSystem

        system = GlueNailSystem.open(str(tmp_path))
        system.facts("e", [(n,) for n in range(20)])
        system.load("p(X) += e(X).")
        wal = system.store.wal
        commits, fsyncs = wal.commits, wal.fsyncs
        system.run_script()
        assert (wal.commits - commits, wal.fsyncs - fsyncs) == (1, 1)
        assert len(rows_of(system.db, "p", 1)) == 20
        system.close()
        fresh = reopen(tmp_path)
        assert len(rows_of(fresh.db, "p", 1)) == 20
        fresh.close()


def _load_program(system, tmp_path):
    system.load("edb e(X, Y); edb f(X); edb g(X);")


def _loaded():
    from repro.core.system import GlueNailSystem

    source = GlueNailSystem()
    for name, rows in LOADED.items():
        source.facts(name, rows)
    return source


def _load_edb(system, tmp_path):
    path = str(tmp_path / "dump.gnd")
    _loaded().save_edb(path)
    system.load_edb(path)


def _load_facts_dir(system, tmp_path):
    directory = str(tmp_path / "facts")
    _loaded().save_facts_dir(directory)
    system.load_facts_dir(directory)


def _repl_line(system, tmp_path):
    import io

    from repro.core.repl import Repl

    Repl(system, out=io.StringIO()).feed("e(1, 2). e(2, 3). f(9).\n")


LOADED = {"e": [(1, 2), (2, 3)], "f": [(9,)], "g": [(4,)]}

# Each user action writes several relations (declares and rows).
LOAD_ACTIONS = {
    "load": _load_program,
    "load_edb": _load_edb,
    "load_facts_dir": _load_facts_dir,
    "repl_line": _repl_line,
}


class TestOneActionOneCommit:
    """A load or a REPL line of facts is one implicit transaction: one WAL
    commit, and all of its declares and rows or none."""

    @pytest.fixture(params=sorted(LOAD_ACTIONS))
    def action(self, request):
        return LOAD_ACTIONS[request.param]

    @staticmethod
    def open_system(directory):
        from repro.core.system import GlueNailSystem

        return GlueNailSystem.open(str(directory / "db"))

    def test_one_commit_and_one_fsync(self, tmp_path, action):
        system = self.open_system(tmp_path)
        wal = system.store.wal
        commits, fsyncs = wal.commits, wal.fsyncs
        action(system, tmp_path)
        assert (wal.commits - commits, wal.fsyncs - fsyncs) == (1, 1)
        assert system.db.get("e", 2) is not None
        system.close()

    def test_a_failed_fsync_leaves_nothing(self, tmp_path, action, fail_next_fsync):
        system = self.open_system(tmp_path)
        # Fail the fsync made once f/1 exists; were each declare or insert
        # its own commit, e/2 would already be durable by then.
        fail_next_fsync(when=lambda: system.db.get("f", 1) is not None)
        with pytest.raises(OSError, match="injected"):
            action(system, tmp_path)
        assert not system.txn.in_transaction
        assert len(system.db) == 0
        system.close()
        fresh = reopen(tmp_path / "db")
        assert len(fresh.db) == 0
        fresh.close()


class TestTransactions:
    def test_committed_survives_uncommitted_does_not(self, tmp_path):
        store = DurableStore(str(tmp_path))
        with store.txn.transaction():
            store.db.fact("edge", 1, 2)
        store.txn.begin()
        store.db.fact("edge", 9, 9)
        # Crash: never committed, never closed cleanly.
        store.wal.close()
        fresh = reopen(tmp_path)
        assert fresh.db.get("edge", 2).sorted_rows() == [(Num(1), Num(2))]
        fresh.close()

    def test_rollback_leaves_no_trace_in_wal(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.txn.begin()
        store.db.fact("edge", 9, 9)
        store.txn.rollback()
        store.close()
        with open(os.path.join(str(tmp_path), "wal.log")) as handle:
            assert "9" not in handle.read()
        fresh = reopen(tmp_path)
        assert fresh.db.get("edge", 2) is None or len(fresh.db.get("edge", 2)) == 0
        fresh.close()


class TestCheckpoint:
    def test_checkpoint_compacts_wal(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.db.facts("edge", [(1, 2), (2, 3)])
        count = store.checkpoint()
        assert count == 2
        with open(store.wal_path) as handle:
            assert handle.read().strip() == "% Glue-Nail WAL (format 1)"
        store.db.fact("edge", 3, 4)  # post-checkpoint commits land in the WAL
        store.close()
        fresh = reopen(tmp_path)
        assert len(fresh.db.get("edge", 2)) == 3
        fresh.close()

    def test_checkpoint_inside_transaction_is_an_error(self, tmp_path):
        from repro.errors import GlueRuntimeError

        store = DurableStore(str(tmp_path))
        store.txn.begin()
        with pytest.raises(GlueRuntimeError):
            store.checkpoint()
        store.txn.rollback()
        store.close()

    def test_clean_close_with_checkpoint(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.db.fact("edge", 1, 2)
        store.close(checkpoint=True)
        fresh = reopen(tmp_path)
        assert fresh.recovered_txns == 0  # everything in the checkpoint
        assert len(fresh.db.get("edge", 2)) == 1
        fresh.close()


class TestCrashRecovery:
    def test_killed_process_loses_only_uncommitted_work(self, tmp_path):
        """A real kill (os._exit) between WAL append and checkpoint: the
        reopened store holds all committed facts and none of the
        uncommitted ones."""
        script = textwrap.dedent(
            """
            import os, sys
            from repro.txn.store import DurableStore

            store = DurableStore(sys.argv[1])
            store.db.fact("edge", 1, 2)                  # autocommitted
            with store.txn.transaction():
                store.db.fact("edge", 2, 3)              # committed batch
                store.db.fact("edge", 3, 4)
            store.txn.begin()
            store.db.fact("edge", 66, 66)                # never committed
            os._exit(1)                                  # die before commit/checkpoint
            """
        )
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        store = reopen(tmp_path)
        rows = store.db.get("edge", 2).sorted_rows()
        assert rows == [(Num(1), Num(2)), (Num(2), Num(3)), (Num(3), Num(4))]
        store.close()

    def test_recovery_tolerates_crash_between_checkpoint_and_truncate(self, tmp_path):
        """save_database succeeded but the WAL truncate never ran: replaying
        the stale WAL over the new checkpoint is idempotent."""
        from repro.storage.persist import save_database

        store = DurableStore(str(tmp_path))
        store.db.facts("edge", [(1, 2), (2, 3)])
        save_database(store.db, store.checkpoint_path)  # checkpoint w/o truncate
        store.wal.close()
        fresh = reopen(tmp_path)
        assert len(fresh.db.get("edge", 2)) == 2
        fresh.close()

    def test_system_open_recovers(self, tmp_path):
        from repro.core.system import GlueNailSystem

        system = GlueNailSystem.open(str(tmp_path))
        system.fact("edge", 1, 2)
        with system.transaction():
            system.fact("edge", 2, 3)
        system.close()
        fresh = GlueNailSystem.open(str(tmp_path))
        fresh.load("path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y) & edge(Y, Z).")
        assert len(fresh.query("path(1, X)?")) == 2
        assert fresh.checkpoint() == 2
        fresh.close()

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_infinities_survive_restart(self, tmp_path, checkpoint):
        """An infinite number used to be written as ``inf`` / ``-inf``: the
        first recovered as an atom, and the second made its whole
        transaction unreadable, so recovery dropped it."""
        store = DurableStore(str(tmp_path))
        rows = [(Num(float("inf")),), (Num(float("-inf")),), (Num(2.5),)]
        with store.txn.transaction():
            store.db.relation("m", 1).insert_many(rows)
        if checkpoint:
            store.checkpoint()
        store.close()
        fresh = reopen(tmp_path)
        assert [repr(r) for r in fresh.db.get("m", 1).sorted_rows()] == [
            repr(r) for r in sorted(rows, key=lambda r: r[0].value)
        ]
        fresh.close()
