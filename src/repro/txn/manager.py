"""Transactions over the EDB: begin/commit/rollback with undo logging.

The paper's Glue update semantics interleave EDB mutation with evaluation;
this module adds the transactional boundaries LDL++ grew into and
U-Datalog formalizes -- updates take effect immediately (so a transaction
reads its own writes) but become *permanent* only at commit, and roll back
exactly on abort.

The :class:`TransactionManager` is the mutation journal a
:class:`~repro.storage.database.Database` dispatches to (created and
attached by ``db.transactions()``):

* inside a transaction, mutations accumulate an in-memory **undo log** and
  a **redo batch** that reaches the WAL -- in one durable append -- only
  on commit;
* outside one, each journal call -- a declare, a drop, or the rows of one
  bulk insert or delete -- is **autocommitted**: it runs as one implicit
  transaction through the same commit path.

Rollback inverts the undo log, newest first, and applies it through
:func:`~repro.storage.persist.apply_ops`, the applier of WAL replay and
checkpoint load: one bulk call per run of same-kind ops.  A commit the WAL
cannot make durable is rolled back before its error propagates: a failed
commit leaves no state behind.

The manager is single-writer by design: the query server makes every
mutation inside its write window, and the embedded single-user case has
no concurrency at all, so any mutation while a transaction is open
belongs to it.  ``begin`` while a transaction is open is an error (no
nesting), matching the flat transaction model of the era.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.errors import GlueRuntimeError
from repro.storage.database import Database
from repro.storage.persist import Op, apply_ops
from repro.txn.wal import WriteAheadLog


class TransactionError(GlueRuntimeError):
    """Misuse of transaction boundaries (nested begin, commit w/o begin)."""


class TransactionManager:
    """Undo/redo journaling for one :class:`Database`.

    ``wal`` is optional: without it the manager still provides atomic
    in-memory transactions (begin/commit/rollback); with it, committed
    batches are durably appended.
    """

    def __init__(self, db: Database, wal: Optional[WriteAheadLog] = None):
        self.db = db
        self.wal = wal
        self._active = False
        self._undo: List[Op] = []
        self._redo: List[Op] = []
        self._suspended = False
        # Commit observers (subscription managers).  Each observer gets
        # ``on_commit(txn_id, ops)`` with the committed batch -- after the
        # transaction state is torn down, so an observer may itself mutate
        # the database (active rules) without tripping over the open txn.
        # Rolled-back transactions notify nothing.
        self._observers: List[object] = []
        self._txn_lock = threading.Lock()
        self.last_txn_id = 0

    # ------------------------------------------------------------------ #
    # commit observers
    # ------------------------------------------------------------------ #

    def add_observer(self, observer) -> None:
        """Register ``observer.on_commit(txn_id, ops)`` for committed batches."""
        if observer not in self._observers:
            self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        if observer in self._observers:
            self._observers.remove(observer)

    def _notify(self, ops: List[Op]) -> None:
        """Deliver a committed batch to observers with a fresh monotone id.

        Catalog ``declare`` ops carry no subscriber-visible data and are
        filtered out; a batch that nets to nothing relevant is not
        delivered at all.
        """
        if not self._observers:
            return
        data_ops = [op for op in ops if op[0] in ("insert", "delete", "drop")]
        if not data_ops:
            return
        with self._txn_lock:
            self.last_txn_id += 1
            txn_id = self.last_txn_id
        for observer in list(self._observers):
            observer.on_commit(txn_id, data_ops)

    # ------------------------------------------------------------------ #
    # journal interface (called from Relation/Database mutation paths)
    # ------------------------------------------------------------------ #

    def record_inserts(self, relation, rows) -> None:
        name = relation.name
        self._record([("insert", name, row) for row in rows])

    def record_deletes(self, relation, rows) -> None:
        name = relation.name
        self._record([("delete", name, row) for row in rows])

    def record_declare(self, name, arity: int) -> None:
        self._record([("declare", name, arity)])

    def record_drop(self, name, arity: int, rows) -> None:
        self._record([("drop", name, arity)], undo=[("drop", name, arity, rows)])

    def _record(self, ops: List[Op], undo: Optional[list] = None) -> None:
        if self._suspended:
            return
        if not self._active:
            # A loose journal call is one implicit transaction.
            with self.transaction():
                self._record(ops, undo)
            return
        self._undo.extend(undo or ops)
        self._redo.extend(ops)

    # ------------------------------------------------------------------ #
    # transaction boundaries
    # ------------------------------------------------------------------ #

    @property
    def in_transaction(self) -> bool:
        return self._active

    def begin(self) -> None:
        if self._active:
            raise TransactionError("a transaction is already active")
        self._active = True
        self._undo = []
        self._redo = []

    def commit(self) -> None:
        """Make the open transaction permanent (durable, with a WAL)."""
        if not self._active:
            raise TransactionError("no transaction is active")
        if self.wal is not None and self._redo:
            try:
                self.wal.append_commit(self._redo)
            except BaseException:
                self.rollback()  # a commit that is not durable leaves nothing
                raise
        batch = self._redo
        self._active = False
        self._undo = []
        self._redo = []
        if batch:
            self._notify(batch)

    def rollback(self) -> None:
        """Undo the open transaction's mutations, newest first, through
        :func:`apply_ops`.

        Going through the relations' own bulk paths (not raw row storage)
        matters for cache coherence: each relation's version and change log
        record the compensation, so the NAIL! engine's incremental
        maintenance sees the insert/delete pairs cancel and keeps every
        derived relation cached across a rollback.  A run of same-kind ops
        is one change-log entry, so this holds whatever the row count.
        """
        if not self._active:
            raise TransactionError("no transaction is active")
        self._suspended = True
        try:
            apply_ops(self.db, _inverse(self._undo))
        finally:
            self._suspended = False
            self._active = False
            self._undo = []
            self._redo = []

    @contextmanager
    def transaction(self):
        """``with manager.transaction():`` -- commit on success, roll back
        on any exception."""
        self.begin()
        try:
            yield self
        except BaseException:
            self.rollback()
            raise
        else:
            self.commit()


_INVERSE = {"insert": "delete", "delete": "insert", "declare": "drop"}


def _inverse(ops: List[tuple]) -> Iterator[Op]:
    """The ops that undo ``ops``, newest first: insert and delete swap, a
    declare is dropped, and a drop is redeclared with its rows reinserted."""
    for op in reversed(ops):
        if op[0] == "drop":
            yield ("declare", op[1], op[2])
            for row in op[3]:
                yield ("insert", op[1], row)
        else:
            yield (_INVERSE[op[0]], op[1], op[2])
