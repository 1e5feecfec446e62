"""Tests for binding-time analysis and safety checks."""

import pytest

from repro.analysis.bindings import (
    BindingError,
    analyze_bindings,
    expr_vars,
    term_vars,
)
from repro.lang.parser import parse_statement


def body_of(text):
    return parse_statement(text).body


class TestVars:
    def test_term_vars_skip_anonymous(self):
        stmt = parse_statement("p(X) := q(X, _, f(Y)).")
        subgoal = stmt.body[0]
        collected = set()
        for arg in subgoal.args:
            collected |= term_vars(arg)
        assert collected == {"X", "Y"}

    def test_expr_vars_through_arithmetic(self):
        stmt = parse_statement("p(D) := q(X, Y) & D = (X - Y) * Z.")
        assert expr_vars(stmt.body[1].right) == {"X", "Y", "Z"}

    def test_expr_vars_through_aggregate(self):
        stmt = parse_statement("p(M) := q(T) & M = max(T).")
        assert expr_vars(stmt.body[1].right) == {"T"}


class TestAnalyze:
    def test_progressive_binding(self):
        body = body_of("h(X, W) := a(X, A, B) & b(A, C) & c(B, C, W).")
        steps = analyze_bindings(body)
        # Supplementary columns from the paper's Section 3.2 example.
        assert steps[0] == (set(), {"X", "A", "B"})
        assert steps[1] == ({"X", "A", "B"}, {"C"})
        assert steps[2] == ({"X", "A", "B", "C"}, {"W"})

    def test_binding_comparison_binds(self):
        body = body_of("p(D) := q(X) & D = X + 1 & D < 10.")
        steps = analyze_bindings(body)
        assert steps[1][1] == {"D"}

    def test_reversed_binding_comparison(self):
        body = body_of("p(D) := q(X) & X + 1 = D.")
        steps = analyze_bindings(body)
        assert steps[1][1] == {"D"}


class TestSafety:
    def test_unsafe_negation(self):
        with pytest.raises(BindingError, match="negated"):
            analyze_bindings(body_of("p(X) := q(X) & !r(Y)."))

    def test_safe_negation(self):
        analyze_bindings(body_of("p(X) := q(X) & !r(X)."))

    def test_unsafe_comparison(self):
        with pytest.raises(BindingError, match="comparison"):
            analyze_bindings(body_of("p(X) := q(X) & X < Y."))

    def test_unsafe_update(self):
        with pytest.raises(BindingError, match="update"):
            analyze_bindings(body_of("p(X) := q(X) & ++r(Y)."))

    def test_update_with_anonymous_is_safe(self):
        # --p(X, _) is a wildcard delete; anonymous vars are not "unbound".
        analyze_bindings(body_of("p(X) := q(X) & --r(X, _)."))

    def test_predicate_variable_must_be_bound(self):
        with pytest.raises(BindingError, match="predicate variable"):
            analyze_bindings(body_of("p(X) := S(X)."))

    def test_predicate_variable_bound_earlier_ok(self):
        analyze_bindings(body_of("p(X) := sets(S) & S(X)."))

    def test_group_by_over_unbound(self):
        with pytest.raises(BindingError, match="group_by"):
            analyze_bindings(body_of("p(X) := q(X) & group_by(Z) & M = max(X)."))

    def test_group_by_non_variable(self):
        with pytest.raises(BindingError, match="variables"):
            analyze_bindings(body_of("p(X) := q(X) & group_by(f(X)) & M = max(X)."))

    def test_aggregate_argument_must_be_bound(self):
        with pytest.raises(BindingError):
            analyze_bindings(body_of("p(M) := q(X) & M = max(T)."))
