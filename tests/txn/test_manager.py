"""Transaction semantics: begin/commit/rollback with undo logging."""

import pytest

from repro.storage.database import Database
from repro.storage.relation import MAX_CHANGELOG_ENTRIES
from repro.terms.term import Atom, Num
from repro.txn.manager import TransactionError, TransactionManager


@pytest.fixture
def txn_db():
    db = Database()
    manager = TransactionManager(db)
    db.attach_journal(manager)
    return db, manager


class TestBoundaries:
    def test_nested_begin_is_an_error(self, txn_db):
        _, manager = txn_db
        manager.begin()
        with pytest.raises(TransactionError):
            manager.begin()

    def test_commit_without_begin_is_an_error(self, txn_db):
        _, manager = txn_db
        with pytest.raises(TransactionError):
            manager.commit()

    def test_rollback_without_begin_is_an_error(self, txn_db):
        _, manager = txn_db
        with pytest.raises(TransactionError):
            manager.rollback()

    def test_commit_keeps_mutations(self, txn_db):
        db, manager = txn_db
        manager.begin()
        db.fact("edge", 1, 2)
        manager.commit()
        assert (Num(1), Num(2)) in db.get("edge", 2)
        assert not manager.in_transaction


class TestRollback:
    def test_insert_is_undone(self, txn_db):
        db, manager = txn_db
        db.fact("edge", 1, 2)
        manager.begin()
        db.fact("edge", 2, 3)
        manager.rollback()
        assert len(db.get("edge", 2)) == 1
        assert (Num(1), Num(2)) in db.get("edge", 2)

    def test_delete_is_undone(self, txn_db):
        db, manager = txn_db
        db.fact("edge", 1, 2)
        manager.begin()
        db.get("edge", 2).delete((Num(1), Num(2)))
        manager.rollback()
        assert (Num(1), Num(2)) in db.get("edge", 2)

    def test_transaction_reads_its_own_writes(self, txn_db):
        db, manager = txn_db
        manager.begin()
        db.fact("edge", 1, 2)
        assert (Num(1), Num(2)) in db.get("edge", 2)
        manager.rollback()

    def test_declare_is_undone(self, txn_db):
        db, manager = txn_db
        manager.begin()
        db.declare("scratch", 2)
        manager.rollback()
        assert not db.exists("scratch", 2)

    def test_drop_restores_relation_and_rows(self, txn_db):
        db, manager = txn_db
        db.facts("edge", [(1, 2), (2, 3)])
        manager.begin()
        db.drop("edge", 2)
        assert not db.exists("edge", 2)
        manager.rollback()
        assert db.exists("edge", 2)
        assert len(db.get("edge", 2)) == 2

    def test_clear_is_undone(self, txn_db):
        db, manager = txn_db
        db.facts("edge", [(1, 2), (2, 3)])
        manager.begin()
        db.get("edge", 2).clear()
        assert len(db.get("edge", 2)) == 0
        manager.rollback()
        assert len(db.get("edge", 2)) == 2

    def test_replace_is_undone(self, txn_db):
        db, manager = txn_db
        db.facts("name", [("ann",), ("bob",)])
        manager.begin()
        db.get("name", 1).replace([(Atom("eve"),)])
        manager.rollback()
        assert db.get("name", 1).sorted_rows() == [(Atom("ann"),), (Atom("bob"),)]

    def test_insert_then_delete_round_trips(self, txn_db):
        db, manager = txn_db
        manager.begin()
        db.fact("edge", 7, 7)
        db.get("edge", 2).delete((Num(7), Num(7)))
        manager.rollback()
        # The in-transaction declare is rolled back too: the relation is
        # gone entirely (or at minimum holds no rows).
        relation = db.get("edge", 2)
        assert relation is None or (Num(7), Num(7)) not in relation

    def test_duplicate_insert_not_undone_to_absence(self, txn_db):
        db, manager = txn_db
        db.fact("edge", 1, 2)
        manager.begin()
        db.fact("edge", 1, 2)  # duplicate: no journal record
        manager.rollback()
        assert (Num(1), Num(2)) in db.get("edge", 2)


class TestContextManager:
    def test_commits_on_success(self, txn_db):
        db, manager = txn_db
        with manager.transaction():
            db.fact("edge", 1, 2)
        assert len(db.get("edge", 2)) == 1

    def test_rolls_back_on_exception(self, txn_db):
        db, manager = txn_db
        db.fact("edge", 1, 2)
        with pytest.raises(RuntimeError):
            with manager.transaction():
                db.fact("edge", 2, 3)
                raise RuntimeError("boom")
        assert len(db.get("edge", 2)) == 1
        assert not manager.in_transaction


class TestSystemFacade:
    def test_begin_commit_rollback_on_system(self):
        from repro.core.system import GlueNailSystem

        system = GlueNailSystem()
        system.fact("edge", 1, 2)
        system.begin()
        system.fact("edge", 2, 3)
        system.rollback()
        assert len(system.db.get("edge", 2)) == 1
        with system.transaction():
            system.fact("edge", 5, 6)
        assert len(system.db.get("edge", 2)) == 2

    def test_repl_transaction_commands(self):
        import io

        from repro.core.repl import Repl

        out = io.StringIO()
        repl = Repl(out=out)
        for line in (
            "edge(1, 2).",
            ".begin",
            "edge(2, 3).",
            ".rollback",
            ".dump edge/2",
            ".commit",
        ):
            repl.feed(line + "\n")
        text = out.getvalue()
        assert "transaction open" in text
        assert "transaction rolled back" in text
        assert "(2, 3)" not in text
        assert "error:" in text  # .commit with no open transaction


class TestBigBatchesKeepTheIdbCache:
    """A batch is one change-log entry whatever its row count, so a batch
    of more rows than the log keeps entries still repairs (or, rolled back,
    keeps) the cached IDB instead of rebuilding it."""

    PROGRAM = """
    edb cites(A, B);
    edb retracted(A, B);
    reach(X, Y) :- cites(X, Y).
    reach(X, Z) :- reach(X, Y) & cites(Y, Z).
    proc retract(:X, Y)
      cites(X, Y) -= retracted(X, Y).
      return(:X, Y) := retracted(X, Y).
    end
    """
    BIG = [(1000 + i, 9000 + i) for i in range(2 * MAX_CHANGELOG_ENTRIES)]

    def system(self):
        from repro.core.system import GlueNailSystem

        system = GlueNailSystem().load(self.PROGRAM)
        system.facts("cites", [(i, i + 1) for i in range(20)])
        assert len(system.query("reach(X, Y)?").rows) == 210
        return system

    def idb_work(self, system):
        counters = system.counters
        return (counters.idb_delta_repairs, counters.idb_resyncs,
                counters.idb_invalidations)

    def test_a_big_facts_batch_is_one_repair(self):
        system = self.system()
        system.facts("cites", self.BIG)
        assert len(system.query("reach(X, Y)?").rows) == 210 + len(self.BIG)
        assert self.idb_work(system) == (1, 0, 0)

    def test_rolling_a_big_batch_back_does_no_idb_work(self):
        system = self.system()
        system.begin()
        system.facts("cites", self.BIG)
        system.rollback()
        assert len(system.query("reach(X, Y)?").rows) == 210
        assert self.idb_work(system) == (0, 0, 0)

    def test_a_big_glue_delete_needs_no_resync(self):
        system = self.system()
        system.facts("cites", self.BIG)
        system.facts("retracted", self.BIG)
        system.query("reach(X, Y)?")
        resyncs = system.counters.idb_resyncs
        system.call("retract")
        assert len(system.query("reach(X, Y)?").rows) == 210
        assert system.counters.idb_resyncs == resyncs
