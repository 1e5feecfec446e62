"""Binding-time analysis (paper Sections 2 and 9).

Because relations hold only ground tuples, the compiler can know exactly
when each variable in an assignment statement becomes bound.  This module
walks a body left to right and computes, for each subgoal, the set of
variables bound *before* it and the set it binds; it also enforces the
safety rules (negated subgoals, comparisons, updates and aggregate
arguments must be over bound variables; procedure inputs must be bound).
"""

from __future__ import annotations

from typing import Iterable, List, Set, Tuple

from repro.lang.ast import (
    AggCall,
    BinOp,
    CompareSubgoal,
    EmptyCond,
    FunCall,
    GroupBySubgoal,
    PredSubgoal,
    UnaryOp,
    UnchangedCond,
    UnionSubgoal,
    UpdateSubgoal,
)
from repro.terms.term import Term, Var, variables


from repro.errors import CompileError


class BindingError(CompileError):
    """A safety violation: an operation over variables not yet bound."""


def term_vars(term: Term) -> Set[str]:
    """Named (non-anonymous) variables in a term."""
    return {v.name for v in variables(term) if not v.is_anonymous}


def terms_vars(terms: Iterable[Term]) -> Set[str]:
    out: Set[str] = set()
    for term in terms:
        out |= term_vars(term)
    return out


def expr_vars(expr) -> Set[str]:
    """Named variables in an expression tree (aggregator args included)."""
    if isinstance(expr, Term):
        return term_vars(expr)
    if isinstance(expr, BinOp):
        return expr_vars(expr.left) | expr_vars(expr.right)
    if isinstance(expr, UnaryOp):
        return expr_vars(expr.operand)
    if isinstance(expr, FunCall):
        out: Set[str] = set()
        for arg in expr.args:
            out |= expr_vars(arg)
        return out
    if isinstance(expr, AggCall):
        return expr_vars(expr.arg)
    raise TypeError(f"not an expression: {expr!r}")


def subgoal_vars(subgoal) -> Set[str]:
    """Every named variable a subgoal mentions (not just the new binds)."""
    if isinstance(subgoal, PredSubgoal):
        return term_vars(subgoal.pred) | terms_vars(subgoal.args)
    if isinstance(subgoal, CompareSubgoal):
        return expr_vars(subgoal.left) | expr_vars(subgoal.right)
    if isinstance(subgoal, GroupBySubgoal):
        return terms_vars(subgoal.terms)
    if isinstance(subgoal, UnionSubgoal):
        return {
            name
            for alt in subgoal.alternatives
            for inner in alt
            for name in subgoal_vars(inner)
        }
    pred = getattr(subgoal, "pred", None)
    out: Set[str] = set()
    if pred is not None:
        out |= term_vars(pred)
    args = getattr(subgoal, "args", None)
    if args is not None:
        out |= terms_vars(args)
    return out


def expr_has_agg(expr) -> bool:
    if isinstance(expr, AggCall):
        return True
    if isinstance(expr, BinOp):
        return expr_has_agg(expr.left) or expr_has_agg(expr.right)
    if isinstance(expr, UnaryOp):
        return expr_has_agg(expr.operand)
    if isinstance(expr, FunCall):
        return any(expr_has_agg(a) for a in expr.args)
    return False


def subgoal_binds(subgoal, bound: Set[str]) -> Set[str]:
    """Variables the subgoal adds to the bound set, given those already bound."""
    if isinstance(subgoal, PredSubgoal):
        if subgoal.negated:
            return set()
        return terms_vars(subgoal.args) | term_vars(subgoal.pred)
    if isinstance(subgoal, CompareSubgoal):
        if subgoal.op == "=" and isinstance(subgoal.left, Var):
            if subgoal.left.name not in bound and not subgoal.left.is_anonymous:
                return {subgoal.left.name}
        if subgoal.op == "=" and isinstance(subgoal.right, Var):
            if subgoal.right.name not in bound and not subgoal.right.is_anonymous:
                return {subgoal.right.name}
        return set()
    if isinstance(subgoal, UnionSubgoal):
        # All alternatives bind the same new variables (enforced by
        # check_subgoal_safety); any alternative's bindings will do.
        out: Set[str] = set(bound)
        for inner in subgoal.alternatives[0]:
            out |= subgoal_binds(inner, out)
        return out - set(bound)
    return set()


def check_subgoal_safety(subgoal, bound: Set[str]) -> None:
    """Raise :class:`BindingError` if the subgoal is unsafe at this point."""
    if isinstance(subgoal, PredSubgoal):
        if subgoal.negated:
            free = (terms_vars(subgoal.args) | term_vars(subgoal.pred)) - bound
            if free:
                raise BindingError(
                    f"negated subgoal !{subgoal.pred} uses unbound variables {sorted(free)}"
                )
        pred_free = term_vars(subgoal.pred) - bound
        if pred_free and not subgoal.negated:
            # A predicate-variable subgoal needs its name bound first.
            raise BindingError(
                f"predicate variable {sorted(pred_free)} must be bound before use"
            )
        return
    if isinstance(subgoal, CompareSubgoal):
        left_free = expr_vars(subgoal.left) - bound
        right_free = expr_vars(subgoal.right) - bound
        if subgoal.op == "=":
            if isinstance(subgoal.left, Var) and subgoal.left.name in left_free:
                left_free = set()
            elif isinstance(subgoal.right, Var) and subgoal.right.name in right_free:
                right_free = set()
        free = left_free | right_free
        if free:
            raise BindingError(
                f"comparison '{subgoal.op}' uses unbound variables {sorted(free)}"
            )
        return
    if isinstance(subgoal, UpdateSubgoal):
        free = (terms_vars(subgoal.args) | term_vars(subgoal.pred)) - bound
        if free:
            raise BindingError(
                f"update subgoal {subgoal.op}{subgoal.pred} uses unbound variables "
                f"{sorted(free)}"
            )
        return
    if isinstance(subgoal, GroupBySubgoal):
        free = terms_vars(subgoal.terms) - bound
        if free:
            raise BindingError(f"group_by over unbound variables {sorted(free)}")
        for term in subgoal.terms:
            if not isinstance(term, Var):
                raise BindingError("group_by arguments must be variables")
        return
    if isinstance(subgoal, (UnchangedCond, EmptyCond)):
        return
    if isinstance(subgoal, UnionSubgoal):
        if not subgoal.alternatives:
            raise BindingError("empty body disjunction")
        binding_sets = []
        for alt in subgoal.alternatives:
            inner_bound = set(bound)
            for inner in alt:
                check_subgoal_safety(inner, inner_bound)
                inner_bound |= subgoal_binds(inner, inner_bound)
            binding_sets.append(inner_bound - set(bound))
        if any(b != binding_sets[0] for b in binding_sets[1:]):
            raise BindingError(
                "every alternative of a body disjunction must bind the same "
                f"variables; got {sorted(map(sorted, binding_sets))}"
            )
        return
    raise TypeError(f"not a subgoal: {subgoal!r}")


def analyze_bindings(body: Iterable[object]) -> List[Tuple[Set[str], Set[str]]]:
    """For each subgoal, the (bound-before, newly-bound) variable sets.

    Raises :class:`BindingError` on the first safety violation.  This is
    the supplementary-relation column calculation of paper Section 3.2:
    the columns of sup_i are the columns of sup_{i-1} plus the variables of
    subgoal i.
    """
    bound: Set[str] = set()
    out: List[Tuple[Set[str], Set[str]]] = []
    for subgoal in body:
        check_subgoal_safety(subgoal, bound)
        new = subgoal_binds(subgoal, bound) - bound
        out.append((set(bound), new))
        bound |= new
    return out
