"""Tests for parameterized-predicate specialization (paper Section 5.2)."""

from repro.hilog.params import specialize_rule, specialize_rules
from repro.lang.parser import parse_program, parse_rule
from repro.nail.engine import NailEngine
from repro.storage.database import Database
from repro.terms.term import Atom, Num, Var

UNIVERSAL_TC = """
tc(E, X, X) :- E(X, _).
tc(E, X, Z) :- tc(E, X, Y) & E(Y, Z).
"""


def rules_of(text):
    return list(parse_program(text).items)


class TestSpecializeRule:
    def test_substitutes_predicate_variable(self):
        rule = parse_rule("tc(E, X, Z) :- tc(E, X, Y) & E(Y, Z).")
        special = specialize_rule(rule, {"E": "edge"})
        assert special.head_args[0] == Atom("edge")
        assert special.body[1].pred == Atom("edge")

    def test_preserves_other_variables(self):
        rule = parse_rule("tc(E, X, Z) :- tc(E, X, Y) & E(Y, Z).")
        special = specialize_rule(rule, {"E": "edge"})
        assert special.head_args[1] == Var("X")

    def test_numbers_and_compounds(self):
        rule = parse_rule("p(K, X) :- data(K, X).")
        special = specialize_rule(rule, {"K": 42})
        assert special.head_args[0] == Num(42)

    def test_substitution_in_expressions(self):
        rule = parse_rule("p(X) :- q(Y) & X = Y + N.")
        special = specialize_rule(rule, {"N": 5})
        assert special.body[1].right.right == Num(5)


class TestSpecializedEvaluation:
    def test_universal_tc_specialized_to_edge(self):
        db = Database()
        db.facts("edge", [(1, 2), (2, 3)])
        db.facts("roads", [("sf", "la")])
        rules = specialize_rules(rules_of(UNIVERSAL_TC), {"E": "edge"})
        engine = NailEngine(db, rules)
        rows = engine.materialize(Atom("tc"), 3)
        closed = {(r[1].value, r[2].value) for r in rows.rows()}
        assert (1, 3) in closed
        assert all(r[0] == Atom("edge") for r in rows.rows())

    def test_two_specializations_coexist(self):
        db = Database()
        db.facts("edge", [(1, 2)])
        db.facts("roads", [("sf", "la")])
        rules = specialize_rules(rules_of(UNIVERSAL_TC), {"E": "edge"})
        rules += specialize_rules(rules_of(UNIVERSAL_TC), {"E": "roads"})
        engine = NailEngine(db, rules)
        rows = engine.materialize(Atom("tc"), 3)
        firsts = {str(r[0]) for r in rows.rows()}
        assert firsts == {"edge", "roads"}

    def test_specialized_matches_magic_on_same_query(self):
        from repro.nail.engine import magic_query

        db = Database()
        db.facts("edge", [(1, 2), (2, 3), (3, 4)])
        rules = rules_of("tc(E, X, X).\ntc(E, X, Z) :- tc(E, X, Y) & E(Y, Z).")
        magic_answers = magic_query(
            db, rules, Atom("tc"), (Atom("edge"), Num(1), Var("Z"))
        )
        special = specialize_rules(rules_of(UNIVERSAL_TC), {"E": "edge"})
        engine = NailEngine(db, special)
        full = engine.query(Atom("tc"), (Atom("edge"), Num(1), Var("Z")))
        # The magic variant includes the reflexive tuple from the unit
        # clause; the specialized variant seeds reflexivity from edges.
        assert {r[2].value for r in magic_answers} == {1, 2, 3, 4}
        assert {r[2].value for r in full} == {1, 2, 3, 4}
