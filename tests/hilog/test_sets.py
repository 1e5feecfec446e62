"""Tests for HiLog set-valued attributes (paper Section 5.1)."""

from repro.baselines.extensional_sets import make_set, sets_equal_extensional
from repro.hilog.sets import member_rows, set_eq, set_insert, set_name
from repro.storage.database import Database
from repro.terms.term import Atom, Compound


class TestSetNames:
    def test_plain_name(self):
        assert set_name("reds") == Atom("reds")

    def test_parameterized_name(self):
        assert set_name("students", "cs99") == Compound(
            Atom("students"), (Atom("cs99"),)
        )

    def test_multi_parameter_name(self):
        name = set_name("enrollment", "cs99", 2026)
        assert name.args[1].value == 2026

    def test_name_equality_is_term_equality(self):
        # "if two set valued attributes contain the same predicate name,
        # then the two sets are identical" -- O(name) comparison.
        assert set_name("students", "cs99") == set_name("students", "cs99")
        assert set_name("students", "cs99") != set_name("students", "cs1")


class TestMembership:
    def test_insert_and_read(self, db):
        name = set_name("students", "cs99")
        assert set_insert(db, name, "wilson")
        assert not set_insert(db, name, "wilson")  # sets: no duplicates
        set_insert(db, name, "green")
        assert sorted(str(r[0]) for r in member_rows(db, name)) == ["green", "wilson"]

    def test_unknown_set_is_empty(self, db):
        assert member_rows(db, set_name("nothing", "here")) == []

    def test_arity_checked(self, db):
        import pytest

        with pytest.raises(ValueError):
            set_insert(db, "pairs", ("a",), arity=2)


class TestSetEq:
    def test_same_name_fast_path(self, db):
        # No members needed: identical names are identical sets.
        name = set_name("students", "cs99")
        assert set_eq(db, name, name)

    def test_extensional_equality(self, db):
        set_insert(db, "s1", "a")
        set_insert(db, "s1", "b")
        set_insert(db, "s2", "b")
        set_insert(db, "s2", "a")
        assert set_eq(db, "s1", "s2")

    def test_extensional_inequality(self, db):
        set_insert(db, "s1", "a")
        set_insert(db, "s2", "a")
        set_insert(db, "s2", "b")
        assert not set_eq(db, "s1", "s2")

    def test_both_empty_equal(self, db):
        assert set_eq(db, "e1", "e2")

    def test_agrees_with_extensional_baseline(self, db):
        for members1, members2 in [
            (["a", "b"], ["b", "a"]),
            (["a"], ["a", "b"]),
            ([], []),
            (["x", "y", "z"], ["x", "y"]),
        ]:
            db2 = Database()
            for m in members1:
                set_insert(db2, "l", m)
            for m in members2:
                set_insert(db2, "r", m)
            hilog = set_eq(db2, "l", "r")
            extensional = sets_equal_extensional(make_set(members1), make_set(members2))
            assert hilog == extensional


class TestClassInfoExample:
    """The paper's class_info schema end to end through the system."""

    SOURCE = """
    class_info(ID, Instructor, Room, tas(ID), students(ID)) :-
      class_instructor(ID, Instructor) &
      class_room(ID, Room) &
      class_subject(ID, _).
    tas(ID)(TA) :-
      class_subject(ID, Subject) & failed_exam(TA, Subject).
    students(ID)(Student) :- attends(Student, ID).
    """

    def _system(self):
        from tests.conftest import make_system

        system = make_system(self.SOURCE)
        system.facts("class_instructor", [("cs99", "smith")])
        system.facts("class_room", [("cs99", "mjh460a")])
        system.facts("class_subject", [("cs99", "databases")])
        system.facts("failed_exam", [("jones", "databases")])
        system.facts("attends", [("wilson", "cs99"), ("green", "cs99")])
        return system

    def test_implied_idb_tuples(self):
        system = self._system()
        students = system.rows(set_name("students", "cs99"), 1)
        assert sorted(str(r[0]) for r in students) == ["green", "wilson"]
        tas = system.rows(set_name("tas", "cs99"), 1)
        assert [str(r[0]) for r in tas] == ["jones"]

    def test_class_info_carries_set_names(self):
        system = self._system()
        (row,) = system.query("class_info(cs99, I, R, T, S)?")
        assert row[3] == set_name("tas", "cs99")
        assert row[4] == set_name("students", "cs99")

    def test_typical_use_dereferences_sets(self):
        # class_info(C,I,R,T,S) & T(TA) & S(Student)  (paper Section 5.1)
        system = self._system()
        system.load(
            """
            proc staff_and_students(:TA, Student)
              return(:TA, Student) :=
                class_info(_, _, _, T, S) & T(TA) & S(Student).
            end
            """
        )
        rows = system.call("staff_and_students")
        pairs = sorted((str(r[0]), str(r[1])) for r in rows)
        assert pairs == [("jones", "green"), ("jones", "wilson")]
