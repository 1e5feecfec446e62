"""Tests for the magic-sets transformation and demand-driven queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine, magic_query
from repro.nail.magic import MagicTransformError, magic_transform
from repro.storage.database import Database
from repro.terms.term import Atom, Num, Var

PATH = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""


def rules_of(text):
    return list(parse_program(text).items)


def db_with(edges):
    db = Database()
    db.facts("edge", edges)
    return db


class TestTransform:
    def test_generates_magic_and_adorned_rules(self):
        program = magic_transform(rules_of(PATH), Atom("path"), (Num(1), Var("Y")))
        heads = {str(r.head_pred) for r in program.rules}
        assert "'path@bf'" in heads or "path@bf" in {str(r.head_pred) for r in program.rules}
        assert any("magic@" in str(r.head_pred) for r in program.rules)
        assert program.seed_row == (Num(1),)
        assert program.adornment == "bf"

    def test_second_argument_bound(self):
        program = magic_transform(rules_of(PATH), Atom("path"), (Var("X"), Num(3)))
        assert program.adornment == "fb"
        assert program.seed_row == (Num(3),)

    def test_all_free_degenerates(self):
        program = magic_transform(rules_of(PATH), Atom("path"), (Var("X"), Var("Y")))
        assert program.adornment == "ff"
        assert program.seed_row == ()

    def test_anonymous_argument_is_free(self):
        # The magic rule for q must not carry ``_`` into its head.
        rules = rules_of("p(X, Y) :- q(X, _) & e(Y).\nq(X, Y) :- e2(X, Y).")
        program = magic_transform(rules, Atom("p"), (Num(1), Var("Y")))
        assert any("q@bf" in str(r.head_pred) for r in program.rules)
        db = Database()
        db.facts("e", [(5,)])
        db.facts("e2", [(1, 2), (3, 4)])
        answers = magic_query(db, rules, Atom("p"), (Num(1), Var("Y")))
        assert sorted(map(str, answers)) == ["(Num(value=1), Num(value=5))"]

    def test_unknown_predicate(self):
        with pytest.raises(MagicTransformError):
            magic_transform(rules_of(PATH), Atom("nope"), (Num(1),))

    def test_negated_idb_outside_fragment(self):
        rules = rules_of("p(X) :- q(X) & !r(X).\nr(X) :- e(X).")
        with pytest.raises(MagicTransformError):
            magic_transform(rules, Atom("p"), (Num(1),))

    def test_aggregates_outside_fragment(self):
        rules = rules_of("p(M) :- q(T) & M = max(T).")
        with pytest.raises(MagicTransformError):
            magic_transform(rules, Atom("p"), (Var("M"),))

    def test_predicate_variable_over_idb_arity_outside_fragment(self):
        # P may name d/2, whose rules the magic program would not carry.
        rules = rules_of("d(X, Y) :- e(Y, X).\nh(X, Y) :- names(P) & P(X, Y).")
        with pytest.raises(MagicTransformError):
            magic_transform(rules, Atom("h"), (Num(1), Var("Y")))
        db = Database()
        db.facts("e", [(2, 1)])
        db.facts("names", [("d",)])
        answers = NailEngine(db, rules).query(Atom("h"), (Num(1), Var("Y")))
        assert answers == [(Num(1), Num(2))]

    def test_compound_heads_outside_fragment(self):
        rules = rules_of("students(ID)(N) :- attends(N, ID).")
        with pytest.raises(MagicTransformError):
            magic_transform(rules, Atom("students"), (Var("N"),))


class TestQueries:
    def test_bound_first_argument(self):
        db = db_with([(1, 2), (2, 3), (3, 4), (10, 11)])
        answers = magic_query(db, rules_of(PATH), Atom("path"), (Num(1), Var("Y")))
        assert sorted(r[1].value for r in answers) == [2, 3, 4]

    def test_bound_second_argument(self):
        db = db_with([(1, 2), (2, 3), (10, 11)])
        answers = magic_query(db, rules_of(PATH), Atom("path"), (Var("X"), Num(3)))
        assert sorted(r[0].value for r in answers) == [1, 2]

    def test_fully_bound_query(self):
        db = db_with([(1, 2), (2, 3)])
        answers = magic_query(db, rules_of(PATH), Atom("path"), (Num(1), Num(3)))
        assert len(answers) == 1
        answers = magic_query(db, rules_of(PATH), Atom("path"), (Num(3), Num(1)))
        assert answers == []

    def test_does_less_work_than_full_evaluation(self):
        edges = [(i, i + 1) for i in range(50)] + [(1000 + i, 1001 + i) for i in range(50)]
        db = db_with(edges)
        db.counters.reset()
        NailEngine(db, rules_of(PATH)).materialize(Atom("path"), 2)
        full_cost = db.counters.tuples_scanned
        db.counters.reset()
        magic_query(db, rules_of(PATH), Atom("path"), (Num(49), Var("Y")))
        magic_cost = db.counters.tuples_scanned
        assert magic_cost < full_cost / 5

    def test_parameterized_tc_via_magic(self):
        # Section 5.2: the universal transitive closure, unsafe bottom-up,
        # becomes evaluable once the magic seed binds E and X.
        rules = rules_of("tc(E, X, X).\ntc(E, X, Z) :- tc(E, X, Y) & E(Y, Z).")
        db = Database()
        db.facts("edge", [(1, 2), (2, 3)])
        db.facts("roads", [("sf", "la")])
        answers = magic_query(
            db, rules, Atom("tc"), (Atom("edge"), Num(1), Var("Z"))
        )
        assert sorted(str(r[2]) for r in answers) == ["1", "2", "3"]
        answers = magic_query(
            db, rules, Atom("tc"), (Atom("roads"), Atom("sf"), Var("Z"))
        )
        assert sorted(str(r[2]) for r in answers) == ["la", "sf"]


@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=25),
    st.integers(0, 6),
)
@settings(max_examples=30, deadline=None)
def test_property_magic_equals_full(edges, source):
    """Magic answers == full evaluation restricted to the query."""
    db = db_with(edges)
    rules = rules_of(PATH)
    answers = magic_query(db, rules, Atom("path"), (Num(source), Var("Y")))
    full = NailEngine(db, rules).query(Atom("path"), (Num(source), Var("Y")))
    assert sorted(map(str, answers)) == sorted(map(str, full))
