"""Tests for the NAIL!-to-Glue compiler (the paper's headline pipeline)."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import GlueNailSystem
from repro.lang.ast import AssignStmt, RepeatStmt
from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine
from repro.nail.nail2glue import Nail2GlueError, compile_rules_to_glue
from repro.storage.database import Database
from repro.terms.term import Atom


def rules_of(text):
    return list(parse_program(text).items)


def run_generated(rules_text, facts, counters=None):
    """Compile rules to Glue, run on a fresh DB, return {pred: rows}.

    With ``counters``, the cost counters of the driver call alone (after
    load and compile) are copied into it.
    """
    rules = rules_of(rules_text) if isinstance(rules_text, str) else rules_text
    result = compile_rules_to_glue(rules)
    system = GlueNailSystem()
    system.load(result.source)
    for name, rows in facts.items():
        system.facts(name, rows)
    system.compile()
    system.reset_counters()
    system.call(result.driver_proc)
    if counters is not None:
        counters.update(system.db.counters.snapshot())
    return {
        (name, arity): system.rows(name, arity)
        for name, arity in result.output_preds
    }, result


def run_native(rules_text, facts):
    db = Database()
    for name, rows in facts.items():
        db.facts(name, rows)
    rules = rules_of(rules_text) if isinstance(rules_text, str) else rules_text
    engine = NailEngine(db, rules)
    engine.materialize_all()
    return engine


PATH = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""

# Strata with more than one recursive statement: each round stages its
# new tuples before they become the next deltas.
NONLINEAR_PATH = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & path(Y, Z).
"""
TWO_RULE_PATH = PATH + "path(X, Z) :- edge(X, Y) & path(Y, Z).\n"


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

    def test_one_recursive_statement_is_a_two_statement_uniondiff_loop(self):
        result = compile_rules_to_glue(rules_of(PATH))
        assert "until empty(delta__path__2(_, _));" in result.source
        assert "new__" not in result.source
        assert "-=" not in result.source
        (loop,) = [
            stmt
            for proc in result.program.modules[0].items
            for stmt in getattr(proc, "body", ())
            if isinstance(stmt, RepeatStmt)
        ]
        assert [(str(s.head_pred), s.op) for s in loop.body] == [
            ("delta__path__2", ":="),
            ("path", "+="),
        ]

    @pytest.mark.parametrize(
        "rules", [NONLINEAR_PATH, TWO_RULE_PATH], ids=["nonlinear", "two_rules"]
    )
    def test_several_recursive_statements_stage_each_round(self, rules):
        source = compile_rules_to_glue(rules_of(rules)).source
        assert "new__path__2(X, Z) := " in source
        assert "new__path__2(X, Z) += " in source
        assert "delta__path__2(V0, V1) := new__path__2(V0, V1)." in source
        assert "-=" not in source

    def test_mutual_recursion_ends_when_every_delta_is_empty(self):
        source = compile_rules_to_glue(
            rules_of(
                """
                even(X) :- zero(X).
                even(Y) :- odd(X) & succ(X, Y).
                odd(Y) :- even(X) & succ(X, Y).
                """
            )
        ).source
        assert "until empty(delta__even__1(_)) & empty(delta__odd__1(_));" in source

    def test_chain_fixpoint_work_is_pinned(self):
        # Each round: the delta is overwritten once (its old rows deleted,
        # the new ones inserted) and added to the relation once.
        counters = {}
        run_generated(PATH, {"edge": [(i, i + 1) for i in range(25)]}, counters)
        work = (counters["deletes"], counters["inserts"], counters["tuples_scanned"])
        assert work == (325, 655, 977)

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
    @pytest.mark.parametrize(
        "rules", [PATH, NONLINEAR_PATH, TWO_RULE_PATH], ids=["linear", "nonlinear", "two_rules"]
    )
    def test_transitive_closure(self, rules):
        facts = {"edge": [(1, 2), (2, 3), (3, 4), (2, 1), (4, 5), (5, 6), (6, 7)]}
        generated, result = run_generated(rules, facts)
        native = run_native(rules, facts)
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


class TestBenchProgram:
    """The rules of ``bench/program.glue`` compiled as ``gluenail nail2glue``
    compiles them, run on the smoke dataset of ``tools/work_counters.py``."""

    @pytest.fixture(scope="class")
    def compiled(self):
        root = Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "work_counters", root / "tools" / "work_counters.py"
        )
        work_counters = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(work_counters)
        system = GlueNailSystem()
        system.load((root / "bench" / "program.glue").read_text())
        rules = system.compile().rules
        facts = dict(work_counters.smoke_dataset().relations())
        generated, result = run_generated(rules, facts)
        return generated, result, run_native(rules, facts)

    @pytest.mark.parametrize(
        "name, arity", [("coauthor", 2), ("reach", 2), ("cited", 1), ("uncited", 1)]
    )
    def test_rows_equal_the_native_engine(self, compiled, name, arity):
        generated, _, native = compiled
        assert generated[(name, arity)]
        assert generated[(name, arity)] == native.materialize(Atom(name), arity).sorted_rows()

    def test_strata_run_bottom_up_and_only_recursion_declares_locals(self, compiled):
        _, result, _ = compiled
        procs = {p.name: p for p in result.program.modules[0].items if hasattr(p, "locals")}
        heads = [
            {str(s.head_pred) for s in procs[name].body if isinstance(s, AssignStmt)} - {"return"}
            for name in result.stratum_procs
        ]
        assert heads == [{"coauthor"}, {"reach", "delta__reach__2"}, {"cited"}, {"uncited"}]
        assert [[d.name for d in procs[name].locals] for name in result.stratum_procs] == [
            [],
            ["delta__reach__2"],
            [],
            [],
        ]
