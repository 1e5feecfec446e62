"""Unit tests for rule preparation: safety and evaluation ordering."""

import re

import pytest

from repro.errors import UnsafeRuleError
from repro.lang.ast import PredSubgoal
from repro.lang.parser import parse_rule
from repro.nail.nail2glue import Nail2GlueError, compile_rules_to_glue
from repro.nail.rules import (
    check_rule_safety,
    order_body_for_evaluation,
    prepare_rules,
)

SAFE, UNSAFE = "safe", "unsafe"

# One rule per subgoal kind, with the verdict prepare_rules gives it.
VERDICTS = [
    # head and predicate variables
    ("p(X, Y) :- e(X, Y).", SAFE),
    ("p(X, Y) :- e(X).", UNSAFE),
    ("p(X) :- S(X).", UNSAFE),
    ("p(S, X) :- names(S) & S(X).", SAFE),
    ("S(X) :- e(X).", UNSAFE),
    # negation
    ("p(X) :- e(X) & !q(X).", SAFE),
    ("p(X) :- e(X) & !q(Y).", UNSAFE),
    ("p(X) :- e(X) & !q(X, _).", SAFE),
    ("p(X) :- e(X) & !S(X).", UNSAFE),
    ("p(X) :- names(S) & e(X) & !S(X).", SAFE),
    # comparisons: binding on either side, or filtering
    ("p(X) :- e(X) & X < 3.", SAFE),
    ("p(X) :- e(X) & 3 > X.", SAFE),
    ("p(X) :- e(X) & X < Y.", UNSAFE),
    ("p(X, D) :- e(X) & D = X * 2.", SAFE),
    ("p(X, D) :- e(X) & X * 2 = D.", SAFE),
    ("h(Y) :- e(X) & k(a, b, Z) & Z = Y.", SAFE),
    ("p(X) :- e(X) & Y = Z.", UNSAFE),
    ("p(X) :- e(X) & X = f(Y).", UNSAFE),
    ("p(X) :- e(X) & _ = X.", SAFE),
    # aggregates and group_by
    ("p(X, N) :- e(X, Y) & group_by(X) & N = count(Y).", SAFE),
    ("p(N) :- e(X, Y) & N = count(Y).", SAFE),
    ("p(X, N) :- e(X, Y) & group_by(Z) & N = count(Y).", UNSAFE),
    ("p(X, N) :- e(X) & N = count(Y).", UNSAFE),
    # unit clauses
    ("edge(1, 2).", SAFE),
    ("tc(E, X, X).", UNSAFE),
    # compound and HiLog-family heads
    ("p(f(X), Y) :- e(X, Y).", SAFE),
    ("p(f(X, Z)) :- e(X).", UNSAFE),
    ("f(X)(Y) :- e(X, Y).", SAFE),
    ("f(Z)(X) :- e(X).", UNSAFE),
    # not NAIL! subgoals
    ("p(X) :- e(X) & ++q(X).", UNSAFE),
]

# Unsafe as written; safe once prepare_rules orders the body.
REORDERED = [
    "tc(G)(X, Z) :- tc(G)(X, Y) & e(G, Y, Z).",
    "p(X) :- !q(X) & e(X).",
    "p(X, D) :- D = X + 1 & e(X).",
    "p(X) :- X > 1 & e(X).",
]


@pytest.mark.parametrize("text, verdict", VERDICTS, ids=[t for t, _ in VERDICTS])
def test_safety_verdict(text, verdict):
    rule = parse_rule(text)
    if verdict == SAFE:
        prepare_rules([rule], check_safety=True)
    else:
        with pytest.raises(UnsafeRuleError):
            prepare_rules([rule], check_safety=True)


@pytest.mark.parametrize("text, verdict", VERDICTS, ids=[t for t, _ in VERDICTS])
def test_prepared_rule_keeps_its_verdict(text, verdict):
    rule = parse_rule(text)
    (info,) = prepare_rules([rule], check_safety=False)
    if verdict == SAFE:
        assert info.unsafe is None
    else:
        with pytest.raises(UnsafeRuleError, match=re.escape(info.unsafe)):
            prepare_rules([rule], check_safety=True)


@pytest.mark.parametrize("text", REORDERED)
def test_safe_only_in_evaluation_order(text):
    rule = parse_rule(text)
    with pytest.raises(UnsafeRuleError):
        check_rule_safety(rule)
    prepare_rules([rule], check_safety=True)


def test_group_by_takes_variables_only():
    # Once accepted here and failing only at evaluation; now rejected when
    # the rule is prepared, as Glue's binding-time analysis rejects it.
    rule = parse_rule("p(X, N) :- e(X, Y) & group_by(f(X)) & N = count(Y).")
    with pytest.raises(UnsafeRuleError, match="group_by arguments must be variables"):
        prepare_rules([rule], check_safety=True)
    with pytest.raises(Nail2GlueError, match="group_by"):
        compile_rules_to_glue([rule])


class TestSafety:
    def test_range_restricted_ok(self):
        check_rule_safety(parse_rule("p(X, Y) :- e(X, Y)."))

    def test_head_var_not_bound(self):
        with pytest.raises(UnsafeRuleError, match="range-restricted"):
            check_rule_safety(parse_rule("p(X, Y) :- e(X)."))

    def test_unit_clause_with_vars_unsafe(self):
        with pytest.raises(UnsafeRuleError):
            check_rule_safety(parse_rule("tc(E, X, X)."))

    def test_ground_unit_clause_safe(self):
        check_rule_safety(parse_rule("edge(1, 2)."))

    def test_negation_over_unbound(self):
        with pytest.raises(UnsafeRuleError, match="negated"):
            check_rule_safety(parse_rule("p(X) :- e(X) & !q(Y)."))

    def test_comparison_over_unbound(self):
        with pytest.raises(UnsafeRuleError, match="comparison"):
            check_rule_safety(parse_rule("p(X) :- e(X) & X < Y."))

    def test_binding_comparison_counts_as_bound(self):
        check_rule_safety(parse_rule("p(X, D) :- e(X) & D = X * 2."))

    def test_right_hand_binding_comparison_counts_as_bound(self):
        check_rule_safety(parse_rule("h(X) :- e(X, Y) & a = Y."))
        check_rule_safety(parse_rule("h(Y) :- e(X) & k(a, b, Z) & Z = Y."))

    def test_comparison_with_both_sides_unbound(self):
        with pytest.raises(UnsafeRuleError, match="comparison"):
            check_rule_safety(parse_rule("p(X) :- e(X) & Y = Z."))

    def test_pred_var_must_be_bound(self):
        with pytest.raises(UnsafeRuleError, match="predicate variable"):
            check_rule_safety(parse_rule("p(X) :- S(X)."))

    def test_head_pred_var_must_be_bound(self):
        with pytest.raises(UnsafeRuleError):
            check_rule_safety(parse_rule("S(X) :- e(X)."))


class TestOrdering:
    def test_reorders_family_parameter_binding(self):
        # The family literal tc(G)(...) needs G bound; the EDB literal
        # binding G must be scheduled first.
        rule = parse_rule("tc(G)(X, Z) :- tc(G)(X, Y) & e(G, Y, Z).")
        ordered = order_body_for_evaluation(rule)
        first = ordered.body[0]
        assert isinstance(first, PredSubgoal)
        assert str(first.pred) == "e"

    def test_moves_negation_after_bindings(self):
        rule = parse_rule("p(X) :- !bad(X) & e(X).")
        ordered = order_body_for_evaluation(rule)
        assert not ordered.body[0].negated
        assert ordered.body[1].negated

    def test_already_ordered_rule_untouched(self):
        rule = parse_rule("p(X, Y) :- e(X, Y) & X < Y.")
        assert order_body_for_evaluation(rule) is rule

    def test_aggregates_stay_in_place(self):
        rule = parse_rule("p(M) :- e(T) & M = max(T) & q(M).")
        ordered = order_body_for_evaluation(rule)
        # q(M) must not move before the aggregate that binds M.
        texts = [str(s) for s in ordered.body]
        agg_index = next(i for i, s in enumerate(texts) if "max" in s)
        q_index = next(i for i, s in enumerate(texts) if s.startswith("PredSubgoal(pred=Atom(name='q'"))
        assert q_index > agg_index


class TestPrepareRules:
    def test_collects_structure(self):
        infos = prepare_rules(
            [parse_rule("p(X) :- e(X) & !q(X)."), parse_rule("m(V) :- s(T) & V = max(T).")]
        )
        assert infos[0].neg_skeletons == (("q", (), 1),) and not infos[0].has_aggregate
        assert infos[1].has_aggregate and not infos[1].neg_skeletons
        assert infos[0].body_skeletons == (("e", (), 1),)

    def test_safety_check_optional(self):
        rules = [parse_rule("tc(E, X, X).")]
        with pytest.raises(UnsafeRuleError):
            prepare_rules(rules, check_safety=True)
        infos = prepare_rules(rules, check_safety=False)
        assert len(infos) == 1

    def test_head_vars_property(self):
        (info,) = prepare_rules([parse_rule("p(X, f(Y)) :- e(X, Y).")])
        assert info.head_vars == {"X", "Y"}



class TestRightHandBinder:
    """``a = Y`` binds ``Y`` as ``Y = a`` does, in every NAIL! entry point."""

    SOURCE = """
    e(1, a). e(2, b). e(3, a).
    k(a, b, 7).
    h(X) :- e(X, Y) & a = Y.
    g(X, Y) :- e(X, _) & k(a, b, Z) & Z = Y.
    """

    def test_rows_query_and_magic(self):
        from repro.core.query import rows_to_python
        from tests.conftest import make_system

        system = make_system(self.SOURCE)
        assert rows_to_python(system.rows("h", 1)) == [(1,), (3,)]
        assert rows_to_python(system.rows("g", 2)) == [(1, 7), (2, 7), (3, 7)]
        assert sorted(rows_to_python(list(system.query("h(X)?")))) == [(1,), (3,)]
        assert rows_to_python(list(system.query_magic("g(2, Y)?"))) == [(2, 7)]

    def test_matches_left_hand_form(self):
        from tests.conftest import make_system

        right = make_system(self.SOURCE)
        left = make_system(self.SOURCE.replace("a = Y", "Y = a").replace(
            "Z = Y", "Y = Z"
        ))
        for name, arity in (("h", 1), ("g", 2)):
            assert right.rows(name, arity) == left.rows(name, arity)
