"""A durable EDB directory: checkpoint dump + write-ahead log + recovery.

Layout of a store directory::

    DIR/checkpoint.gnd   last full EDB dump (save_database format)
    DIR/wal.log          committed mutations since that checkpoint

Opening a store recovers: load the checkpoint (if any), then replay every
complete committed batch of the WAL over it.  :meth:`DurableStore.checkpoint`
compacts -- it atomically rewrites ``checkpoint.gnd`` from the live
database and truncates the WAL.  Both steps are individually atomic and
replay is idempotent, so a crash at any point between them recovers to the
same committed state.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import GlueRuntimeError
from repro.storage.database import Database
from repro.storage.persist import load_database, save_database
from repro.txn.wal import WriteAheadLog, replay_wal

CHECKPOINT_FILE = "checkpoint.gnd"
WAL_FILE = "wal.log"


class DurableStore:
    """A :class:`Database` whose committed mutations survive crashes.

    Typical embedded use::

        store = DurableStore("state/")       # recovers if needed
        store.db.fact("edge", 1, 2)          # autocommitted to the WAL
        with store.txn.transaction():
            store.db.fact("edge", 2, 3)      # atomic as a unit
        store.checkpoint()                   # compact WAL into the dump
        store.close()
    """

    def __init__(self, directory: str, db: Optional[Database] = None, sync: bool = True):
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.checkpoint_path = os.path.join(self.directory, CHECKPOINT_FILE)
        self.wal_path = os.path.join(self.directory, WAL_FILE)
        self.db = db if db is not None else Database()

        # Recovery: checkpoint first, then the committed WAL suffix.
        self.recovered_txns = 0
        self.recovered_ops = 0
        if os.path.exists(self.checkpoint_path):
            load_database(self.checkpoint_path, self.db)
        if os.path.exists(self.wal_path):
            self.recovered_txns, self.recovered_ops = replay_wal(self.wal_path, self.db)

        self.wal = WriteAheadLog(self.wal_path, sync=sync)
        self.txn = self.db.transactions()
        self.txn.wal = self.wal

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #

    def checkpoint(self) -> int:
        """Compact: dump the live EDB, then truncate the WAL.

        Returns the number of facts in the new checkpoint.  Must not run
        inside a transaction (the dump would capture uncommitted state).
        """
        if self.txn.in_transaction:
            raise GlueRuntimeError("cannot checkpoint inside a transaction")
        count = save_database(self.db, self.checkpoint_path)
        self.wal.reset()
        return count

    def close(self, checkpoint: bool = False) -> None:
        """Detach from the database and close the WAL.

        ``checkpoint=True`` compacts first (a clean shutdown); otherwise
        the WAL simply remains for the next open's recovery to replay.
        """
        if checkpoint and not self.txn.in_transaction:
            self.checkpoint()
        self.db.attach_journal(None)
        self.wal.close()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DurableStore {self.directory!r} rels={len(self.db)}>"
