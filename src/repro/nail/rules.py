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

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.bindings import (
    BindingError,
    analyze_bindings,
    expr_has_agg,
    subgoal_vars,
    term_vars,
    terms_vars,
)
from repro.analysis.scope import Skeleton, pred_skeleton
from repro.errors import UnsafeRuleError
from repro.lang.ast import CompareSubgoal, GroupBySubgoal, PredSubgoal, RuleDecl
from repro.opt.literal import LiteralPlan, classify_join_columns
from repro.record import Record

__all__ = [
    "JoinPlanner",
    "RuleInfo",
    "StratumSupport",
    "check_rule_safety",
    "compute_stratum_supports",
    "order_body_for_evaluation",
    "prepare_rules",
]


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
        # Every variable a binding can hold, in a fixed order: the dedup
        # key of ``_dedup_bindings`` (no per-binding sort).
        self.var_order: Tuple[str, ...] = tuple(
            sorted(set().union(*map(subgoal_vars, rule.body)))
        )
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


class RuleInfo(Record, uncompared=("planner",)):
    """A NAIL! rule plus its precomputed structure."""

    __slots__ = ("rule", "head_skeleton", "body_skeletons", "has_aggregate", "planner",
                 "neg_skeletons", "unsafe")

    def __init__(self, rule: RuleDecl, head_skeleton: Skeleton,
                 body_skeletons: Tuple[Skeleton, ...], has_aggregate: bool, planner: JoinPlanner,
                 neg_skeletons: Tuple[Skeleton, ...] = (), unsafe: Optional[str] = None) -> None:
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "head_skeleton", head_skeleton)
        # positive literals only, in order
        object.__setattr__(self, "body_skeletons", body_skeletons)
        object.__setattr__(self, "has_aggregate", has_aggregate)
        object.__setattr__(self, "planner", planner)
        object.__setattr__(self, "neg_skeletons", neg_skeletons)  # negated literals, in order
        object.__setattr__(self, "unsafe", unsafe)  # why check_rule_safety rejects it, if it does

    @property
    def head_vars(self) -> Set[str]:
        return term_vars(self.rule.head_pred) | terms_vars(self.rule.head_args)


def check_rule_safety(rule: RuleDecl) -> None:
    """Raise :class:`UnsafeRuleError` unless the rule is safe: its body
    holds only NAIL! subgoals, passes the binding-time analysis every Glue
    body passes (:func:`repro.analysis.bindings.analyze_bindings`), and
    binds every head variable (range restriction)."""
    for subgoal in rule.body:
        if not isinstance(subgoal, (PredSubgoal, CompareSubgoal, GroupBySubgoal)):
            raise UnsafeRuleError(
                f"NAIL! rules may not contain {type(subgoal).__name__} subgoals"
            )
    try:
        steps = analyze_bindings(rule.body)
    except BindingError as exc:
        raise UnsafeRuleError(str(exc)) from exc
    bound = set().union(*(new for _before, new in steps))
    head_free = (term_vars(rule.head_pred) | terms_vars(rule.head_args)) - bound
    if head_free:
        raise UnsafeRuleError(
            f"rule for {rule.head_pred} is not range-restricted: head variables "
            f"{sorted(head_free)} are not bound by the body"
        )


def order_body_for_evaluation(rule: RuleDecl) -> RuleDecl:
    """Reorder a rule body into an evaluable left-to-right schedule.

    NAIL! is declarative: subgoal order carries no meaning (aggregation
    boundaries aside), so the engine schedules literals so that negation,
    comparisons and predicate-variable names are bound before use --
    e.g. in ``tc(G)(X, Z) :- tc(G)(X, Y) & e(G, Y, Z)`` the EDB literal
    runs first to bind the family parameter ``G``.
    """
    from repro.opt.passes import optimize

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
    """Order each rule's body and precompute its structure.

    Each rule's safety verdict is taken once, on its evaluation order, and
    kept as :attr:`RuleInfo.unsafe`; ``check_safety`` raises the first
    unsafe rule's :class:`UnsafeRuleError` instead.
    """
    infos: List[RuleInfo] = []
    for rule in rules:
        rule = order_body_for_evaluation(rule)
        unsafe = None
        try:
            check_rule_safety(rule)
        except UnsafeRuleError as exc:
            if check_safety:
                raise
            unsafe = str(exc)
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
                unsafe=unsafe,
            )
        )
    return infos


# ---------------------------------------------------------------------- #
# dependency support sets (incremental IDB maintenance)
# ---------------------------------------------------------------------- #


class StratumSupport(Record):
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

    __slots__ = ("direct", "blocking", "transitive", "universal", "blocks_all")

    def __init__(self, direct: FrozenSet[Skeleton], blocking: FrozenSet[Skeleton],
                 transitive: FrozenSet[Skeleton], universal: bool, blocks_all: bool) -> None:
        object.__setattr__(self, "direct", direct)
        object.__setattr__(self, "blocking", blocking)
        object.__setattr__(self, "transitive", transitive)
        object.__setattr__(self, "universal", universal)
        object.__setattr__(self, "blocks_all", blocks_all)

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
