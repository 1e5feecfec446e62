"""DurableStore: open-with-recovery, checkpointing, and crash survival."""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.terms.term import Num
from repro.txn.store import DurableStore

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


def reopen(directory):
    return DurableStore(str(directory))


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


class TestFactsBatch:
    """One ``facts`` call outside a transaction is one implicit transaction."""

    def test_failing_row_leaves_nothing(self, tmp_path):
        from repro.core.system import GlueNailSystem

        system = GlueNailSystem.open(str(tmp_path))
        with pytest.raises(TypeError):
            system.facts("p", [[1], [None]])
        assert system.rows("p", 1).rows == []
        system.close()
        fresh = GlueNailSystem.open(str(tmp_path))
        assert fresh.rows("p", 1).rows == []
        fresh.close()

    def test_one_wal_commit_and_one_notification(self, tmp_path):
        from repro.core.system import GlueNailSystem

        system = GlueNailSystem.open(str(tmp_path))
        seen = []
        system.subscribe("edge", 2, callback=seen.append)
        commits, fsyncs = system.store.wal.commits, system.store.wal.fsyncs
        assert system.facts("edge", [(i, i + 1) for i in range(250)]) == 250
        assert system.store.wal.commits == commits + 1
        assert system.store.wal.fsyncs == fsyncs + 1
        assert len(seen) == 1
        system.close()
        fresh = GlueNailSystem.open(str(tmp_path))
        assert len(fresh.rows("edge", 2).rows) == 250
        fresh.close()


class TestTransactions:
    def test_committed_survives_uncommitted_does_not(self, tmp_path):
        store = DurableStore(str(tmp_path))
        with store.transaction():
            store.db.fact("edge", 1, 2)
        store.begin()
        store.db.fact("edge", 9, 9)
        # Crash: never committed, never closed cleanly.
        store.wal.close()
        fresh = reopen(tmp_path)
        assert fresh.db.get("edge", 2).sorted_rows() == [(Num(1), Num(2))]
        fresh.close()

    def test_rollback_leaves_no_trace_in_wal(self, tmp_path):
        store = DurableStore(str(tmp_path))
        store.begin()
        store.db.fact("edge", 9, 9)
        store.rollback()
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
        store.begin()
        with pytest.raises(GlueRuntimeError):
            store.checkpoint()
        store.rollback()
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
            with store.transaction():
                store.db.fact("edge", 2, 3)              # committed batch
                store.db.fact("edge", 3, 4)
            store.begin()
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
        with store.transaction():
            store.db.relation("m", 1).insert_many(rows)
        if checkpoint:
            store.checkpoint()
        store.close()
        fresh = reopen(tmp_path)
        assert [repr(r) for r in fresh.db.get("m", 1).sorted_rows()] == [
            repr(r) for r in sorted(rows, key=lambda r: r[0].value)
        ]
        fresh.close()
