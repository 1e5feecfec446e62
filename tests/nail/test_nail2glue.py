"""Tests for the NAIL!-to-Glue compiler (the paper's headline pipeline)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import GlueNailSystem
from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine
from repro.nail.nail2glue import Nail2GlueError, compile_rules_to_glue
from repro.storage.database import Database
from repro.terms.term import Atom


def rules_of(text):
    return list(parse_program(text).items)


def run_generated(rules_text, facts):
    """Compile rules to Glue, run on a fresh DB, return {pred: rows}."""
    rules = rules_of(rules_text)
    result = compile_rules_to_glue(rules)
    system = GlueNailSystem()
    system.load(result.source)
    for name, rows in facts.items():
        system.facts(name, rows)
    system.call(result.driver_proc)
    return {
        (name, arity): system.rows(name, arity)
        for name, arity in result.output_preds
    }, result


def run_native(rules_text, facts):
    db = Database()
    for name, rows in facts.items():
        db.facts(name, rows)
    engine = NailEngine(db, rules_of(rules_text))
    engine.materialize_all()
    return engine


PATH = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""


class TestGeneratedCode:
    def test_source_parses_and_compiles(self):
        result = compile_rules_to_glue(rules_of(PATH))
        # The generated text is ordinary Glue that reparses to the same AST.
        assert parse_program(result.source) == result.program
        system = GlueNailSystem()
        system.load(result.source)
        system.compile()

    def test_one_proc_per_stratum_plus_driver(self):
        rules = rules_of(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X) & edge(X, Y).
            unreach(X) :- node(X) & !reach(X).
            """
        )
        result = compile_rules_to_glue(rules)
        assert len(result.stratum_procs) == 2
        assert result.driver_proc == "nail_eval_all"

    def test_uses_repeat_until_unchanged(self):
        result = compile_rules_to_glue(rules_of(PATH))
        assert "repeat" in result.source
        assert "unchanged(path(_, _))" in result.source

    def test_seminaive_deltas_in_source(self):
        result = compile_rules_to_glue(rules_of(PATH))
        assert "delta__path__2" in result.source
        assert "!path(X, Z)" in result.source  # negation-as-difference

    def test_unsafe_rules_rejected(self):
        with pytest.raises(Nail2GlueError):
            compile_rules_to_glue(rules_of("tc(E, X, X)."))

    def test_predicate_variables_rejected(self):
        with pytest.raises(Nail2GlueError):
            compile_rules_to_glue(rules_of("p(X) :- s(S) & S(X)."))

    def test_compound_heads_rejected(self):
        with pytest.raises(Nail2GlueError):
            compile_rules_to_glue(rules_of("students(ID)(N) :- attends(N, ID)."))


class TestEquivalence:
    def test_transitive_closure(self):
        facts = {"edge": [(1, 2), (2, 3), (3, 4), (2, 1)]}
        generated, result = run_generated(PATH, facts)
        native = run_native(PATH, facts)
        assert generated[("path", 2)] == native.materialize(Atom("path"), 2).sorted_rows()

    def test_stratified_negation(self):
        source = """
        reach(X) :- start(X).
        reach(Y) :- reach(X) & edge(X, Y).
        unreach(X) :- node(X) & !reach(X).
        """
        facts = {
            "edge": [(0, 1), (1, 2)],
            "node": [(i,) for i in range(5)],
            "start": [(0,)],
        }
        generated, _ = run_generated(source, facts)
        native = run_native(source, facts)
        assert generated[("unreach", 1)] == native.materialize(Atom("unreach"), 1).sorted_rows()

    def test_mutual_recursion(self):
        source = """
        even(X) :- zero(X).
        even(Y) :- odd(X) & succ(X, Y).
        odd(Y) :- even(X) & succ(X, Y).
        """
        facts = {"zero": [(0,)], "succ": [(i, i + 1) for i in range(8)]}
        generated, _ = run_generated(source, facts)
        native = run_native(source, facts)
        assert generated[("even", 1)] == native.materialize(Atom("even"), 1).sorted_rows()
        assert generated[("odd", 1)] == native.materialize(Atom("odd"), 1).sorted_rows()

    def test_aggregation_rules(self):
        source = """
        avg(C, A) :- grade(C, G) & group_by(C) & A = mean(G).
        big(C) :- avg(C, A) & A >= 70.
        """
        facts = {"grade": [("cs1", 80), ("cs1", 90), ("cs2", 60)]}
        generated, _ = run_generated(source, facts)
        native = run_native(source, facts)
        assert generated[("big", 1)] == native.materialize(Atom("big"), 1).sorted_rows()

    def test_ground_facts_in_rules(self):
        source = PATH + "edge(7, 8).\nedge(8, 9)."
        generated, _ = run_generated(source, {})
        rows = [tuple(v.value for v in row) for row in generated[("path", 2)]]
        assert (7, 9) in rows

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=20))
    @settings(max_examples=20, deadline=None)
    def test_property_generated_equals_native(self, edges):
        facts = {"edge": edges}
        generated, _ = run_generated(PATH, facts)
        native = run_native(PATH, facts)
        assert generated[("path", 2)] == native.materialize(Atom("path"), 2).sorted_rows()
