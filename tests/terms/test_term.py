"""Unit tests for the term model."""

import pytest

from repro.terms.term import (
    Atom,
    Compound,
    Num,
    Var,
    fresh_var,
    is_ground,
    mk,
    sort_key,
    variables,
)


class TestConstruction:
    def test_atom(self):
        assert Atom("foo").name == "foo"

    def test_atom_empty_string_is_legal(self):
        assert Atom("").name == ""

    def test_atom_rejects_non_str(self):
        with pytest.raises(TypeError):
            Atom(3)

    def test_num_int_and_float(self):
        assert Num(3).value == 3
        assert Num(2.5).value == 2.5

    def test_num_rejects_bool(self):
        with pytest.raises(TypeError):
            Num(True)

    def test_num_rejects_nan(self):
        # NaN equals nothing, itself included, and has no literal.
        with pytest.raises(ValueError, match="NaN"):
            Num(float("nan"))

    def test_num_rejects_str(self):
        with pytest.raises(TypeError):
            Num("3")

    def test_var_rejects_empty_name(self):
        with pytest.raises(TypeError):
            Var("")

    def test_compound_functor_may_be_compound(self):
        # HiLog: students(cs99) can itself be a functor.
        inner = Compound(Atom("students"), (Atom("cs99"),))
        outer = Compound(inner, (Atom("wilson"),))
        assert outer.functor == inner
        assert outer.arity == 1

    def test_compound_rejects_empty_args(self):
        with pytest.raises(TypeError):
            Compound(Atom("f"), ())

    def test_compound_rejects_non_term_args(self):
        with pytest.raises(TypeError):
            Compound(Atom("f"), (1,))


class TestEqualityAndHashing:
    def test_structural_equality(self):
        assert Compound(Atom("f"), (Num(1),)) == Compound(Atom("f"), (Num(1),))

    def test_atoms_and_strings_are_one_type(self):
        # Paper Section 2: no separate string type.
        assert Atom("hello world") == Atom("hello world")

    def test_terms_are_hashable(self):
        terms = {Atom("a"), Num(1), Compound(Atom("f"), (Atom("a"),))}
        assert len(terms) == 3

    def test_int_float_num_equality(self):
        # 2 and 2.0 are the same database value (numeric matching).
        assert Num(2) == Num(2.0)
        assert hash(Num(2)) == hash(Num(2.0))

    def test_different_functor_not_equal(self):
        assert Compound(Atom("f"), (Num(1),)) != Compound(Atom("g"), (Num(1),))


class TestVariables:
    def test_variables_in_order(self):
        term = Compound(Atom("f"), (Var("X"), Compound(Atom("g"), (Var("Y"), Var("X")))))
        assert [v.name for v in variables(term)] == ["X", "Y", "X"]

    def test_variables_in_functor_position(self):
        term = Compound(Var("P"), (Var("X"),))
        assert {v.name for v in variables(term)} == {"P", "X"}

    def test_anonymous_flag(self):
        assert Var("_").is_anonymous
        assert Var("_foo").is_anonymous
        assert not Var("X").is_anonymous

    def test_fresh_var_not_anonymous(self):
        assert not fresh_var().is_anonymous

    def test_fresh_vars_distinct(self):
        assert fresh_var() != fresh_var()


class TestGroundness:
    def test_ground(self):
        assert is_ground(Compound(Atom("f"), (Num(1), Atom("a"))))

    def test_not_ground_with_var(self):
        assert not is_ground(Compound(Atom("f"), (Var("X"),)))

    def test_not_ground_with_var_functor(self):
        assert not is_ground(Compound(Var("P"), (Num(1),)))


class TestMk:
    def test_mk_string(self):
        assert mk("a") == Atom("a")

    def test_mk_numbers(self):
        assert mk(3) == Num(3)
        assert mk(2.5) == Num(2.5)

    def test_mk_tuple_builds_compound(self):
        assert mk(("f", 1, "a")) == Compound(Atom("f"), (Num(1), Atom("a")))

    def test_mk_nested(self):
        term = mk(("f", ("g", 1), "a"))
        assert term.args[0] == Compound(Atom("g"), (Num(1),))

    def test_mk_passthrough(self):
        atom = Atom("x")
        assert mk(atom) is atom

    def test_mk_rejects_bool(self):
        with pytest.raises(TypeError):
            mk(True)

    def test_mk_rejects_short_tuple(self):
        with pytest.raises(TypeError):
            mk(("f",))


class TestSortKey:
    def test_numbers_before_atoms_before_compounds(self):
        ordering = sorted(
            [Compound(Atom("f"), (Num(1),)), Atom("a"), Num(5)], key=sort_key
        )
        assert isinstance(ordering[0], Num)
        assert isinstance(ordering[1], Atom)
        assert isinstance(ordering[2], Compound)

    def test_numeric_order_mixed_int_float(self):
        values = sorted([Num(2.5), Num(2), Num(3)], key=sort_key)
        assert [v.value for v in values] == [2, 2.5, 3]

    def test_atoms_lexicographic(self):
        values = sorted([Atom("b"), Atom("a")], key=sort_key)
        assert [v.name for v in values] == ["a", "b"]

    def test_compounds_by_arity_then_functor(self):
        small = Compound(Atom("z"), (Num(1),))
        big = Compound(Atom("a"), (Num(1), Num(2)))
        assert sorted([big, small], key=sort_key) == [small, big]
