"""Unit tests for the bindings-based rule-body evaluator."""

import pytest

from repro.col.batch import Batch
from repro.errors import GlueRuntimeError
from repro.lang.parser import parse_rule
from repro.nail.bodyeval import derive_heads, eval_expr_bindings, eval_rule_body_batch
from repro.nail.rules import prepare_rules
from repro.nail.seminaive import DeltaRelation
from repro.storage.database import Database
from repro.terms.term import Atom, Compound, Num

EDB = Database()
EDB.facts("edge", [(1, 2), (2, 3), (3, 3)])
EDB.facts("score", [(Atom("a"), 10), (Atom("b"), 20), (Atom("c"), 20)])
EDB.facts("blocked", [(3,)])


def rows_fn(name, arity):
    return EDB.get(name, arity)


def prepared(rule_text):
    (info,) = prepare_rules([parse_rule(rule_text)], check_safety=False)
    return info


def evaluate(info, **kwargs):
    out = eval_rule_body_batch(info, rows_fn, **kwargs)
    return out.to_dicts() if isinstance(out, Batch) else out


def run(rule_text, **kwargs):
    info = prepared(rule_text)
    return info, evaluate(info, **kwargs)


class TestJoins:
    def test_single_literal(self):
        _, bindings = run("p(X, Y) :- edge(X, Y).")
        assert len(bindings) == 3

    def test_join(self):
        _, bindings = run("p(X, Z) :- edge(X, Y) & edge(Y, Z).")
        pairs = {(b["X"].value, b["Z"].value) for b in bindings}
        assert pairs == {(1, 3), (2, 3), (3, 3)}

    def test_negation(self):
        _, bindings = run("p(X) :- edge(X, _) & !blocked(X).")
        assert {b["X"].value for b in bindings} == {1, 2}

    def test_comparison_filter(self):
        _, bindings = run("p(X) :- edge(X, Y) & X < Y.")
        assert {b["X"].value for b in bindings} == {1, 2}

    def test_binding_comparison(self):
        _, bindings = run("p(X, D) :- edge(X, Y) & D = Y - X.")
        assert {b["D"].value for b in bindings} == {1, 0}

    def test_true_false_literals(self):
        _, bindings = run("p(X) :- edge(X, _) & true.")
        assert bindings
        _, bindings = run("p(X) :- edge(X, _) & false.")
        assert bindings == []

    def test_empty_relation(self):
        _, bindings = run("p(X) :- nothing(X).")
        assert bindings == []

    def test_delta_override(self):
        info = prepared("p(X, Z) :- edge(X, Y) & edge(Y, Z).")
        delta = DeltaRelation()
        delta.extend([(Num(1), Num(2))])

        def delta_fn(name, arity):
            return delta

        bindings = evaluate(info, delta_index=0, delta_rows_fn=delta_fn)
        # Only the delta tuple is used at position 0; position 1 is full.
        assert {(b["X"].value, b["Z"].value) for b in bindings} == {(1, 3)}


class TestAggregation:
    def test_aggregate_binding(self):
        _, bindings = run("p(M) :- score(_, S) & M = max(S).")
        assert all(b["M"].value == 20 for b in bindings)

    def test_aggregate_filter(self):
        _, bindings = run("p(N) :- score(N, S) & S = max(S).")
        assert {b["N"].name for b in bindings} == {"b", "c"}

    def test_group_by(self):
        _, bindings = run("p(S, N) :- score(W, S) & group_by(S) & N = count(W).")
        counts = {(b["S"].value, b["N"].value) for b in bindings}
        assert counts == {(10, 1), (20, 2)}

    def test_anonymous_projection_dedups_before_aggregate(self):
        # score(_, S) projects onto S alone; the supplementary relation is
        # duplicate-free over its columns, so the two 20s collapse -- the
        # flip side of the paper's duplicate-preserving temperature example
        # (there the city column kept the readings distinct).
        _, bindings = run("p(S, N) :- score(_, S) & group_by(S) & N = count(S).")
        counts = {(b["S"].value, b["N"].value) for b in bindings}
        assert counts == {(10, 1), (20, 1)}

    def test_flipped_aggregate(self):
        _, bindings = run("p(N) :- score(N, S) & max(S) = S.")
        assert {b["N"].name for b in bindings} == {"b", "c"}


class TestDeriveHeads:
    def test_plain_head(self):
        rule, bindings = run("p(X) :- edge(X, _).")
        heads = derive_heads(rule, bindings)
        assert (Atom("p"), (Num(1),)) in heads

    def test_compound_head_name(self):
        rule, bindings = run("family(X)(Y) :- edge(X, Y).")
        heads = derive_heads(rule, bindings)
        names = {name for name, _ in heads}
        assert Compound(Atom("family"), (Num(1),)) in names


class TestErrors:
    def test_unbound_predicate_variable(self):
        with pytest.raises(GlueRuntimeError):
            evaluate(prepared("p(X) :- S(X)."))

    def test_unbound_expression_variable(self):
        with pytest.raises(GlueRuntimeError):
            eval_expr_bindings(parse_rule("p(D) :- q(X) & D = X + 1.").body[1].right, {})
