"""Rule preparation: safety (range restriction), structural checks, and
per-rule join precompilation.

The :class:`JoinPlanner` computes, once per (body literal, bound-variable
set), everything the hash-join evaluator needs at run time: which argument
positions are constants, which carry the shared-variable join key, which
extract new bindings, and which need general term matching.  Round-time
work in the evaluator is then key build + hash probe instead of a
``substitute``/``match_tuple`` pair per accumulated binding per tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.analysis.bindings import (
    BindingError,
    check_subgoal_safety,
    expr_has_agg,
    subgoal_binds,
    term_vars,
)
from repro.analysis.scope import Skeleton, pred_skeleton
from repro.errors import UnsafeRuleError
from repro.lang.ast import (
    AggCall,
    BinOp,
    CompareSubgoal,
    FunCall,
    GroupBySubgoal,
    PredSubgoal,
    RuleDecl,
    UnaryOp,
)
from repro.opt.literal import LiteralPlan, classify_join_columns
from repro.terms.term import Term, Var, variables

__all__ = [
    "JoinPlanner",
    "RuleInfo",
    "StratumSupport",
    "check_rule_safety",
    "compute_stratum_supports",
    "order_body_for_evaluation",
    "prepare_rules",
    "terms_free",
]


def _expr_var_occurrences(expr) -> List[str]:
    """Named variables in an expression, first-appearance order."""
    if isinstance(expr, Term):
        return [v.name for v in variables(expr) if not v.is_anonymous]
    if isinstance(expr, BinOp):
        return _expr_var_occurrences(expr.left) + _expr_var_occurrences(expr.right)
    if isinstance(expr, UnaryOp):
        return _expr_var_occurrences(expr.operand)
    if isinstance(expr, (FunCall, AggCall)):
        out: List[str] = []
        args = expr.args if isinstance(expr, FunCall) else (expr.arg,)
        for arg in args:
            out.extend(_expr_var_occurrences(arg))
        return out
    return []


class JoinPlanner:
    """Per-rule cache of literal join plans, keyed by bound-variable set.

    Plans depend on which variables are bound *before* a literal, which
    depends on the order the evaluator picks at run time, so plans are
    compiled lazily and memoized per ``(literal index, bound-set)``.  One
    planner lives on each :class:`RuleInfo` and is shared by every
    evaluation of that rule.
    """

    __slots__ = ("rule", "var_order", "_plans")

    def __init__(self, rule: RuleDecl):
        self.rule = rule
        order: List[str] = []
        seen: Set[str] = set()
        for subgoal in rule.body:
            if isinstance(subgoal, PredSubgoal):
                names = [
                    v.name
                    for t in (subgoal.pred, *subgoal.args)
                    for v in variables(t)
                    if not v.is_anonymous
                ]
            elif isinstance(subgoal, CompareSubgoal):
                names = _expr_var_occurrences(subgoal.left) + _expr_var_occurrences(
                    subgoal.right
                )
            elif isinstance(subgoal, GroupBySubgoal):
                names = [t.name for t in subgoal.terms if isinstance(t, Var)]
            else:
                names = []
            for name in names:
                if name not in seen:
                    seen.add(name)
                    order.append(name)
        # A precomputed dedup key order for the whole rule (satellite: no
        # per-binding sort in _dedup_bindings).
        self.var_order: Tuple[str, ...] = tuple(order)
        self._plans: Dict[Tuple[int, FrozenSet[str]], LiteralPlan] = {}

    def plan_for(self, index: int, bound: FrozenSet[str]) -> LiteralPlan:
        key = (index, bound)
        plan = self._plans.get(key)
        if plan is None:
            subgoal = self.rule.body[index]
            plan = classify_join_columns(
                subgoal.pred, subgoal.args, bound, subgoal.negated
            )
            self._plans[key] = plan
        return plan


@dataclass(frozen=True)
class RuleInfo:
    """A NAIL! rule plus its precomputed structure."""

    rule: RuleDecl
    head_skeleton: Skeleton
    body_skeletons: Tuple[Skeleton, ...]  # positive literals only, in order
    has_aggregate: bool
    planner: JoinPlanner = field(compare=False, repr=False)
    neg_skeletons: Tuple[Skeleton, ...] = ()  # negated literals, in order

    @property
    def head_vars(self) -> Set[str]:
        out = term_vars(self.rule.head_pred)
        for arg in self.rule.head_args:
            out |= term_vars(arg)
        return out


def _allowed_subgoal(subgoal) -> bool:
    return isinstance(subgoal, (PredSubgoal, CompareSubgoal, GroupBySubgoal))


def check_rule_safety(rule: RuleDecl, demand_bound: Set[str] = frozenset()) -> None:
    """Check range restriction: every variable in the head (and every
    variable used by negation, comparison filters or aggregates) must be
    bound by a positive body literal.

    ``demand_bound`` names variables bound externally (by a magic
    predicate); plain bottom-up evaluation passes the empty set.
    """
    bound: Set[str] = set(demand_bound)
    for subgoal in rule.body:
        if not _allowed_subgoal(subgoal):
            raise UnsafeRuleError(
                f"NAIL! rules may not contain {type(subgoal).__name__} subgoals"
            )
        if isinstance(subgoal, PredSubgoal):
            pred_free = term_vars(subgoal.pred) - bound
            if pred_free:
                raise UnsafeRuleError(
                    f"predicate variable(s) {sorted(pred_free)} unbound when "
                    f"evaluating {subgoal.pred}"
                )
            if subgoal.negated:
                free = terms_free(subgoal.args, bound)
                if free:
                    raise UnsafeRuleError(
                        f"negated literal uses unbound variables {sorted(free)}"
                    )
            else:
                for arg in subgoal.args:
                    bound |= term_vars(arg)
        elif isinstance(subgoal, CompareSubgoal):
            # The same rule the planner schedules by: ``=`` binds a fresh
            # variable on either side.
            try:
                check_subgoal_safety(subgoal, bound)
            except BindingError as exc:
                raise UnsafeRuleError(str(exc)) from exc
            bound |= subgoal_binds(subgoal, bound)
        elif isinstance(subgoal, GroupBySubgoal):
            free = terms_free(subgoal.terms, bound)
            if free:
                raise UnsafeRuleError(f"group_by over unbound variables {sorted(free)}")
    head_free = (term_vars(rule.head_pred) | terms_free(rule.head_args, set())) - bound
    if head_free:
        raise UnsafeRuleError(
            f"rule for {rule.head_pred} is not range-restricted: head variables "
            f"{sorted(head_free)} are not bound by the body"
        )


def terms_free(terms: Sequence, bound: Set[str]) -> Set[str]:
    free: Set[str] = set()
    for term in terms:
        free |= term_vars(term) - bound
    return free


def order_body_for_evaluation(rule: RuleDecl) -> RuleDecl:
    """Reorder a rule body into an evaluable left-to-right schedule.

    NAIL! is declarative: subgoal order carries no meaning (aggregation
    boundaries aside), so the engine schedules literals so that negation,
    comparisons and predicate-variable names are bound before use --
    e.g. in ``tc(G)(X, Z) :- tc(G)(X, Y) & e(G, Y, Z)`` the EDB literal
    runs first to bind the family parameter ``G``.
    """
    from repro.opt import optimize

    ordered = optimize(rule.body).ordered_body
    if ordered == rule.body:
        return rule
    return RuleDecl(
        head_pred=rule.head_pred,
        head_args=rule.head_args,
        body=ordered,
        line=rule.line,
    )


def prepare_rules(rules: Sequence[RuleDecl], check_safety: bool = True) -> List[RuleInfo]:
    infos: List[RuleInfo] = []
    for rule in rules:
        rule = order_body_for_evaluation(rule)
        if check_safety:
            check_rule_safety(rule)
        body_skeletons = []
        neg_skeletons = []
        has_agg = False
        for subgoal in rule.body:
            if isinstance(subgoal, PredSubgoal):
                if subgoal.negated:
                    neg_skeletons.append(pred_skeleton(subgoal.pred, len(subgoal.args)))
                else:
                    body_skeletons.append(pred_skeleton(subgoal.pred, len(subgoal.args)))
            elif isinstance(subgoal, CompareSubgoal):
                if expr_has_agg(subgoal.left) or expr_has_agg(subgoal.right):
                    has_agg = True
        infos.append(
            RuleInfo(
                rule=rule,
                head_skeleton=pred_skeleton(rule.head_pred, len(rule.head_args)),
                body_skeletons=tuple(body_skeletons),
                has_aggregate=has_agg,
                planner=JoinPlanner(rule),
                neg_skeletons=tuple(neg_skeletons),
            )
        )
    return infos


# ---------------------------------------------------------------------- #
# dependency support sets (incremental IDB maintenance)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class StratumSupport:
    """What one stratum's cached extension depends on.

    ``direct`` are the skeletons its rules read in the body (positive and
    negated) plus the stratum's own head skeletons (EDB facts stored under
    a rule-defined name seed the derived relation).  ``transitive`` closes
    ``direct`` over lower strata down to EDB leaves: the cached extension
    is stale exactly when a relation matching one of these changed.

    ``blocking`` names the skeletons whose *growth* cannot be repaired by
    monotone delta propagation -- inputs read under negation or feeding an
    aggregate -- so a change there forces full (but stratum-scoped)
    recomputation.  ``universal`` marks strata reading through predicate
    variables (the support set is then the whole EDB); ``blocks_all``
    additionally forces rebuild on any change (a negated or aggregated
    predicate-variable literal, whose inputs are unknowable statically).
    """

    direct: FrozenSet[Skeleton]
    blocking: FrozenSet[Skeleton]
    transitive: FrozenSet[Skeleton]
    universal: bool
    blocks_all: bool

    def touches(self, changed: Set[Skeleton]) -> bool:
        return self.universal or bool(self.transitive & changed)

    def repairable(self, changed: Set[Skeleton]) -> bool:
        """Can growth of ``changed`` be propagated as a seminaive delta?"""
        return not self.blocks_all and not (self.blocking & changed)


def compute_stratum_supports(rule_infos, strata) -> List[StratumSupport]:
    """Per-stratum dependency support sets, in stratum order.

    Strata arrive bottom-up (from :func:`repro.analysis.stratify.stratify`)
    so each transitive set is built from the already-finished sets of the
    strata below it.
    """
    stratum_of: Dict[Skeleton, int] = {}
    for stratum in strata:
        for skeleton in stratum.skeletons:
            stratum_of[skeleton] = stratum.index
    supports: List[StratumSupport] = []
    for stratum in strata:
        direct: Set[Skeleton] = set(stratum.skeletons)
        blocking: Set[Skeleton] = set()
        universal = False
        blocks_all = False
        for info in rule_infos:
            if info.head_skeleton not in stratum.skeletons:
                continue
            inputs = set(info.body_skeletons) | set(info.neg_skeletons)
            direct |= inputs
            if any(skel[0] is None for skel in info.body_skeletons):
                universal = True  # predicate variable: may read any relation
            if info.has_aggregate:
                # The aggregate needs the complete extension of everything
                # the rule ranges over; growth there is non-monotone.
                blocking |= inputs
                if any(skel[0] is None for skel in inputs):
                    blocks_all = True
            for skel in info.neg_skeletons:
                if skel[0] is None:
                    blocks_all = True
                else:
                    blocking.add(skel)
        transitive: Set[Skeleton] = set(stratum.skeletons)
        for skel in direct:
            lower = stratum_of.get(skel)
            if lower is None:
                if skel[0] is not None:
                    transitive.add(skel)  # an EDB leaf
            elif lower < stratum.index:
                transitive |= supports[lower].transitive
                universal = universal or supports[lower].universal
        supports.append(
            StratumSupport(
                direct=frozenset(direct),
                blocking=frozenset(blocking),
                transitive=frozenset(transitive),
                universal=universal,
                blocks_all=blocks_all,
            )
        )
    return supports
