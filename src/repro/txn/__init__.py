"""Transactions and durability for the Glue-Nail EDB.

The paper's storage manager (Section 10) is single-user and persists the
EDB only as a full dump between runs.  This package upgrades it to a
durable, transactional store:

* :mod:`repro.txn.manager` -- :class:`TransactionManager`:
  begin/commit/rollback with an in-memory undo log, hooked into every
  :class:`~repro.storage.relation.Relation` mutation path through the
  database's journal interface.
* :mod:`repro.txn.wal` -- :class:`WriteAheadLog`: an append-only,
  human-readable redo log of committed mutations (fact syntax, one line
  per op) plus :func:`replay_wal` for crash recovery.
* :mod:`repro.txn.store` -- :class:`DurableStore`: a database directory
  (checkpoint dump + WAL) with open-time recovery and checkpoint
  compaction.
"""
