"""Bulk write paths: a rollback, a ``Database.facts`` batch, a ``delete_many``.

A relation stores rows only through ``Relation.insert_trusted`` and removes
them only through ``Relation.delete_many``, and a rollback applies its undo
log through ``repro.storage.persist.apply_ops``, one bulk call per run of
same-kind ops.  Three in-process timings, none with a write-ahead log:

* rolling back a transaction that inserted 25 000 rows;
* ``Database.facts`` of 250 rows, the batch ``bench/``'s writers send;
* ``delete_many`` of 2 000 rows from a 4 000-row relation.

The shape test (run under ``--benchmark-disable`` too) checks that each of
the three is one batch: one version bump and one change-log entry.

    PYTHONPATH=src:. python -m pytest benchmarks/bench_rollback.py
"""

from repro.storage.database import Database
from repro.terms.term import Num

ROLLBACK_ROWS = 25_000
FACTS_ROWS = 250
DELETE_ROWS = 2_000


def rows(count, offset=0):
    return [(Num(key), Num(key % 97)) for key in range(offset, offset + count)]


def open_transaction(count):
    """A database with an open transaction that inserted ``count`` rows."""
    db = Database()
    edge = db.declare("edge", 2)
    edge.track_changes()
    db.transactions().begin()
    edge.insert_new(rows(count))
    return db, edge


def facts_target():
    db = Database()
    db.transactions()
    db.facts("edge", [(i, i) for i in range(FACTS_ROWS)])
    return db


def delete_target():
    db = Database()
    edge = db.declare("edge", 2)
    edge.insert_new(rows(2 * DELETE_ROWS))
    edge.build_index((1,))
    return edge


def test_rollback_of_inserted_rows(benchmark):
    def setup():
        db, _edge = open_transaction(ROLLBACK_ROWS)
        return (db,), {}

    def rollback(db):
        db.journal.rollback()
        return db

    db = benchmark.pedantic(rollback, setup=setup, rounds=10)
    assert len(db.get("edge", 2)) == 0


def test_facts_batch(benchmark):
    batch = [(FACTS_ROWS + i, i) for i in range(FACTS_ROWS)]

    def setup():
        return (facts_target(),), {}

    def facts(db):
        return db.facts("edge", batch)

    assert benchmark.pedantic(facts, setup=setup, rounds=50) == FACTS_ROWS


def test_delete_many(benchmark):
    doomed = rows(DELETE_ROWS, offset=DELETE_ROWS // 2)

    def setup():
        return (delete_target(),), {}

    def delete(edge):
        return edge.delete_many(doomed)

    assert benchmark.pedantic(delete, setup=setup, rounds=20) == DELETE_ROWS


def test_shape_each_write_is_one_batch():
    db, edge = open_transaction(ROLLBACK_ROWS)
    version = edge.version - 1
    db.journal.rollback()
    assert (len(edge), edge.version - version) == (0, 2)
    assert len(edge._changelog.entries) == 2
    assert edge.changes_since(version) == ([], [])

    db = facts_target()
    edge = db.get("edge", 2)
    edge.track_changes()
    version = edge.version
    assert db.facts("edge", [(FACTS_ROWS + i, i) for i in range(FACTS_ROWS)]) == FACTS_ROWS
    assert (edge.version - version, len(edge._changelog.entries)) == (1, 1)

    edge = delete_target()
    edge.track_changes()
    version = edge.version
    assert edge.delete_many(rows(DELETE_ROWS, offset=DELETE_ROWS // 2)) == DELETE_ROWS
    assert (edge.version - version, len(edge._changelog.entries)) == (1, 1)
    assert len(edge.build_index((1,))) == len(edge) == DELETE_ROWS
