"""Unit tests for the term model."""

import copy
import json
import pickle

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

    def test_compound_hash_and_equality_agree_across_int_and_float(self):
        two, two_f = Compound(Atom("f"), (Num(2),)), Compound(Atom("f"), (Num(2.0),))
        assert two == two_f
        assert hash(two) == hash(two_f)
        assert len({two, two_f}) == 1


class TestNativeValues:
    """Atoms are ``str`` and numbers ``int`` / ``float``: C hashing and C
    equality, with the term model's construction rules and repr kept."""

    def test_relifting_an_atom_keeps_its_text_unquoted(self):
        # str() of an atom is the printer's quoted text; re-lifting must
        # not go through it (magic predicate names once came back quoted).
        atom = Atom(Atom("magic@p@bf"))
        assert atom.name == "magic@p@bf"
        assert str(atom) == "'magic@p@bf'"

    def test_atom_equals_its_string(self):
        assert Atom("a") == "a"
        assert hash(Atom("a")) == hash("a")

    def test_num_equals_its_number(self):
        assert Num(2) == 2
        assert hash(Num(2.5)) == hash(2.5)

    def test_int_and_float_nums_are_one_value(self):
        assert Num(2) == Num(2.0)
        assert hash(Num(2)) == hash(Num(2.0))
        assert sort_key(Num(2)) == sort_key(Num(2.0))

    @pytest.mark.parametrize("value, stored", [
        (2.0, 2), (-0.0, 0), (-(2.0**53), -(2**53)), (2.0**53, 2**53),
        (2.0**53 + 2, 2.0**53 + 2), (1e300, 1e300), (float("-inf"), float("-inf")), (2.5, 2.5),
    ])
    def test_one_representative_per_number(self, value, stored):
        # An integral float within +-2**53 is stored as the int; past
        # that, or with a fraction, the float stays.
        num = Num(value)
        assert type(num.value) is type(stored) and num.value == stored
        assert repr(num) == f"Num(value={stored!r})"

    @pytest.mark.parametrize(
        "build", [lambda: Num(True), lambda: Num(float("nan")), lambda: Atom(1)]
    )
    def test_rejected_values(self, build):
        with pytest.raises((TypeError, ValueError)):
            build()

    def test_repr_is_unchanged(self):
        assert repr(Atom("it's")) == """Atom(name="it's")"""
        assert repr(Num(1)) == "Num(value=1)"
        assert repr(Num(-0.5)) == "Num(value=-0.5)"
        assert repr(Compound(Atom("f"), (Num(2.5),))) == (
            "Compound(functor=Atom(name='f'), args=(Num(value=2.5),))"
        )

    def test_name_and_value_are_exact_builtins(self):
        assert type(Atom("a").name) is str
        assert type(Num(1).value) is int
        assert type(Num(1.5).value) is float

    @pytest.mark.parametrize(
        "term",
        # Num(-0.0) is the int 0 (one representative per number); -0.5 keeps a float.
        [Atom("a"), Num(10**30), pytest.param(Num(-0.0), id="-0.0"),
         Compound(Atom("f"), (Num(2), Atom("x"))), Num(-0.5)],
    )
    def test_pickle_and_copy_round_trip(self, term):
        pickled = [
            pickle.loads(pickle.dumps(term, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in [*pickled, copy.copy(term), copy.deepcopy(term)]:
            assert clone == term and type(clone) is type(term)
            assert hash(clone) == hash(term)

    def test_json_writes_the_base_values(self):
        terms = [Atom("a"), Num(float("inf")), Num(-0.5), Num(10**30)]
        raw = ["a", float("inf"), -0.5, 10**30]
        assert json.dumps(terms) == json.dumps(raw)


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
