"""Tests for EDB persistence: "storing EDB relations on disk between runs"."""

import os

import pytest

from repro.storage.database import Database
from repro.storage.persist import load_database, save_database
from repro.terms.term import Atom, Compound, Num


class TestRoundTrip:
    def test_simple_facts(self, tmp_path, db):
        db.facts("edge", [(1, 2), (2, 3)])
        db.facts("name", [("ann",), ("bob",)])
        path = str(tmp_path / "edb.gnd")
        count = save_database(db, path)
        assert count == 4
        loaded = load_database(path)
        assert loaded.get("edge", 2).sorted_rows() == db.get("edge", 2).sorted_rows()
        assert loaded.get("name", 1).sorted_rows() == db.get("name", 1).sorted_rows()

    def test_quoted_atoms_survive(self, tmp_path, db):
        db.fact("msg", "hello world", "it's")
        path = str(tmp_path / "edb.gnd")
        save_database(db, path)
        loaded = load_database(path)
        assert (Atom("hello world"), Atom("it's")) in loaded.get("msg", 2)

    def test_compound_values_and_names(self, tmp_path, db):
        set_name = Compound(Atom("students"), (Atom("cs99"),))
        db.relation(set_name, 1).insert((Atom("wilson"),))
        db.fact("point", ("p", 3, 4))
        path = str(tmp_path / "edb.gnd")
        save_database(db, path)
        loaded = load_database(path)
        assert (Atom("wilson"),) in loaded.get(set_name, 1)
        assert (Compound(Atom("p"), (Num(3), Num(4))),) in loaded.get("point", 1)

    def test_empty_relations_keep_catalog_entry(self, tmp_path, db):
        db.declare("empty_rel", 3)
        path = str(tmp_path / "edb.gnd")
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.exists("empty_rel", 3)
        assert len(loaded.get("empty_rel", 3)) == 0

    def test_zero_arity_relation(self, tmp_path, db):
        db.relation("flag", 0).insert(())
        path = str(tmp_path / "edb.gnd")
        save_database(db, path)
        loaded = load_database(path)
        assert () in loaded.get("flag", 0)

    def test_floats_and_negatives(self, tmp_path, db):
        db.facts("measure", [(-3, 2.5), (1000000, -0.125)])
        path = str(tmp_path / "edb.gnd")
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.get("measure", 2).sorted_rows() == db.get("measure", 2).sorted_rows()

    def test_load_into_existing_database(self, tmp_path, db):
        db.fact("edge", 1, 2)
        path = str(tmp_path / "edb.gnd")
        save_database(db, path)
        target = Database()
        target.fact("edge", 9, 9)
        load_database(path, target)
        assert len(target.get("edge", 2)) == 2

    def test_dump_is_deterministic(self, tmp_path, db):
        db.facts("edge", [(2, 3), (1, 2)])
        p1, p2 = str(tmp_path / "a.gnd"), str(tmp_path / "b.gnd")
        save_database(db, p1)
        save_database(db, p2)
        with open(p1) as f1, open(p2) as f2:
            assert f1.read() == f2.read()

    def test_bad_line_reports_position(self, tmp_path):
        path = str(tmp_path / "bad.gnd")
        with open(path, "w") as handle:
            handle.write("% Glue-Nail EDB dump (format 1)\nedge(1, 2).\n???\n")
        with pytest.raises(ValueError, match="bad.gnd:3"):
            load_database(path)

    def test_bad_line_loads_no_row(self, tmp_path):
        path = str(tmp_path / "bad.gnd")
        with open(path, "w") as handle:
            handle.write("edge(1, 2).\nedge(2, 3).\nedge(X, 4).\n")
        target = Database()
        with pytest.raises(ValueError, match="bad.gnd:3"):
            load_database(path, target)
        assert target.total_rows() == 0

    def test_each_relation_loads_as_one_batch(self, tmp_path, db):
        db.facts("edge", [(i, i + 1) for i in range(50)])
        db.facts("node", [(i,) for i in range(50)])
        path = str(tmp_path / "edb.gnd")
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.get("edge", 2).version == loaded.get("node", 1).version == 1
        assert loaded.counters.inserts == 100
        assert list(loaded.get("edge", 2).rows()) == db.get("edge", 2).sorted_rows()

    def test_creates_directories(self, tmp_path, db):
        db.fact("edge", 1, 2)
        path = str(tmp_path / "deep" / "nested" / "edb.gnd")
        save_database(db, path)
        assert os.path.exists(path)


class TestAtomicSave:
    def test_success_leaves_no_temp_file(self, tmp_path, db):
        db.fact("edge", 1, 2)
        path = str(tmp_path / "edb.gnd")
        save_database(db, path)
        assert os.listdir(str(tmp_path)) == ["edb.gnd"]

    def test_failed_dump_keeps_the_old_file(self, tmp_path, db, monkeypatch):
        """A crash mid-write must not tear the previous dump: the write goes
        to a temp file, which is cleaned up, and the target stays intact."""
        import pytest

        db.fact("edge", 1, 2)
        path = str(tmp_path / "edb.gnd")
        save_database(db, path)
        with open(path) as handle:
            before = handle.read()

        db.fact("edge", 2, 3)
        monkeypatch.setattr(os, "replace", _boom)
        with pytest.raises(RuntimeError):
            save_database(db, path)
        with open(path) as handle:
            assert handle.read() == before  # old dump untouched
        assert not os.path.exists(path + ".tmp")  # temp cleaned up


def _boom(*args, **kwargs):
    raise RuntimeError("simulated crash during rename")
