"""Tests for the Database catalog."""

import pytest

from repro.storage.database import Database, pred_key
from repro.terms.term import Atom, Compound, Num, Var


class TestPredKey:
    def test_string_lifted(self):
        assert pred_key("edge", 2) == (Atom("edge"), 2)

    def test_term_passthrough(self):
        name = Compound(Atom("students"), (Atom("cs99"),))
        assert pred_key(name, 1) == (name, 1)

    def test_rejects_nonground(self):
        with pytest.raises(ValueError):
            pred_key(Var("X"), 1)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            pred_key(3, 1)


class TestCatalog:
    def test_declare_and_get(self, db):
        r = db.declare("edge", 2)
        assert db.get("edge", 2) is r

    def test_relation_creates_on_demand(self, db):
        r = db.relation("fresh", 3)
        assert r.arity == 3
        assert db.exists("fresh", 3)

    def test_facts_refuse_nan(self, db):
        # NaN has no literal and equals nothing: it could not be found
        # again, nor survive a restart.
        with pytest.raises(ValueError, match="NaN"):
            db.facts("a", [(float("nan"),)])
        assert not db.exists("a", 1)

    def test_same_name_different_arity_coexist(self, db):
        r1 = db.relation("p", 1)
        r2 = db.relation("p", 2)
        assert r1 is not r2

    def test_arity_conflict_on_declare(self, db):
        db.declare("edge", 2)
        # declaring at a new arity creates a distinct relation, not an error
        db.declare("edge", 3)
        assert db.get("edge", 2).arity == 2
        assert db.get("edge", 3).arity == 3

    def test_drop(self, db):
        db.declare("edge", 2)
        assert db.drop("edge", 2)
        assert not db.drop("edge", 2)
        assert db.get("edge", 2) is None

    def test_contains(self, db):
        db.declare("edge", 2)
        assert ("edge", 2) in db
        assert ("edge", 3) not in db

    def test_len_and_total_rows(self, db):
        db.facts("a", [(1,), (2,)])
        db.facts("b", [(1, 2)])
        assert len(db) == 2
        assert db.total_rows() == 3

    def test_sorted_keys_deterministic(self, db):
        db.declare("zebra", 1)
        db.declare("apple", 1)
        db.declare("apple", 2)
        keys = db.sorted_keys()
        assert keys[0][0] == Atom("apple") and keys[0][1] == 1
        assert keys[-1][0] == Atom("zebra")


class TestVersioning:
    def test_version_bumps_on_any_relation_change(self, db):
        v0 = db.version
        db.fact("edge", 1, 2)
        assert db.version > v0

    def test_version_bumps_on_declare(self, db):
        v0 = db.version
        db.declare("fresh", 1)
        assert db.version > v0

    def test_version_stable_on_read(self, db):
        db.fact("edge", 1, 2)
        v = db.version
        list(db.get("edge", 2).rows())
        assert db.version == v


class TestFacts:
    def test_fact_lifts_python_values(self, db):
        db.fact("edge", 1, "a")
        assert (Num(1), Atom("a")) in db.get("edge", 2)

    def test_facts_returns_new_count(self, db):
        assert db.facts("edge", [(1, 2), (1, 2), (2, 3)]) == 2

    def test_counters_shared_with_relations(self, db):
        db.fact("edge", 1, 2)
        assert db.counters.inserts == 1
