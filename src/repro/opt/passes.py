"""The pass pipeline: an ordered list of rewrite rules over a scheduled body.

``optimize()`` is the one public planner entry point for both engines
(paper Sections 3.1 and 9; the shape follows Raco's ordered rule list over
a logical plan).  A plan starts as the body in source order; each pass
rewrites the schedule or annotates it:

* ``pull-selections`` -- constant-selection pull-forward: comparisons and
  emptiness tests move to the earliest position where they are admissible,
  shrinking every later intermediate.
* ``join-order`` -- greedy cheapest-admissible-next join ordering within
  the segments delimited by fixed subgoals, by estimated matches per
  binding (``rows / prod(distinct(key col))``) with bound-variable
  propagation; unbound-argument ratio is the fallback when statistics are
  unknown.
* ``push-projections`` -- annotates scans with the variables still live
  afterwards so the evaluator can drop dead columns (and merge the
  duplicates) mid-body.

Admissibility reuses the engine-neutral machinery in
``repro.analysis.bindings`` (safety) and ``repro.analysis.fixedness``
(fixed subgoals keep their positions; nothing moves past an aggregator),
plus the caller's procedure-call oracles for Glue bodies.  A stuck
schedule degrades to source order.  Without statistics the ``join-order``
pass is the plain greedy schedule by unbound-argument ratio, which is how
NAIL! rule bodies are made evaluable (``repro.nail.rules``) and what the
Glue compiler falls back to when a planned order does not bind-check.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.bindings import (
    BindingError,
    check_subgoal_safety,
    subgoal_binds,
    subgoal_vars,
    term_vars,
    terms_vars,
)
from repro.analysis.fixedness import (
    CallFixedness,
    is_aggregating_subgoal,
    is_fixed_subgoal,
)
from repro.lang.ast import CompareSubgoal, EmptyCond, GroupBySubgoal, PredSubgoal
from repro.opt.literal import classify_join_columns
from repro.opt.plan import Plan, PlanStep, filter_selectivity
from repro.opt.stats import StatsContext
from repro.terms.term import Var

# Returns the bound arity of a callable subgoal, or None for relations.
CallBoundArity = Callable[[PredSubgoal], Optional[int]]


def _no_call_info(_subgoal: PredSubgoal):
    return None


class PassContext:
    """Shared state for one ``optimize()`` call."""

    __slots__ = ("stats", "bound", "input_size", "call_fixedness", "call_bound_arity",
                 "pinned_first", "required_vars", "allow_projection")

    def __init__(self, stats: StatsContext, bound: Optional[Set[str]] = None,
                 input_size: Optional[float] = 1.0, call_fixedness: CallFixedness = _no_call_info,
                 call_bound_arity: CallBoundArity = _no_call_info,
                 pinned_first: Optional[int] = None, required_vars: Optional[Set[str]] = None,
                 allow_projection: bool = False) -> None:
        self.stats = stats
        self.bound = set() if bound is None else bound
        self.input_size = input_size
        self.call_fixedness = call_fixedness
        self.call_bound_arity = call_bound_arity
        self.pinned_first = pinned_first  # seminaive delta literal, if any
        self.required_vars = required_vars  # head vars (projection target)
        self.allow_projection = allow_projection


class PlanState:
    """The mutable plan the passes rewrite: a schedule over the body."""

    __slots__ = ("body", "order", "project")

    def __init__(self, body: Tuple, order: List[int]) -> None:
        self.body = body
        self.order = order
        self.project: Dict[int, Tuple[str, ...]] = {}


def _admissible(subgoal, bound: Set[str], ctx: PassContext) -> bool:
    try:
        check_subgoal_safety(subgoal, bound)
    except BindingError:
        return False
    if isinstance(subgoal, PredSubgoal) and not subgoal.negated:
        bound_arity = ctx.call_bound_arity(subgoal)
        if bound_arity is not None:
            if terms_vars(subgoal.args[:bound_arity]) - bound:
                return False
    return True


def _scan_estimate(subgoal: PredSubgoal, bound: Set[str], ctx: PassContext):
    """Estimated matches per input binding, or None when unknown."""
    if term_vars(subgoal.pred):
        return None  # HiLog literal: the relation name is run-time data
    snap = ctx.stats.lookup(subgoal.pred, len(subgoal.args))
    if snap is None:
        return None
    lit = classify_join_columns(
        subgoal.pred, subgoal.args, frozenset(bound), subgoal.negated
    )
    return snap.est_matches(lit.probe_cols)


def _score(subgoal, bound: Set[str], ctx: PassContext) -> tuple:
    """Lower runs earlier.  Filters and binds are free (category 0);
    admissible negations only shrink (1); scans order by estimated matches
    per binding when statistics are known, by unbound-argument ratio
    otherwise (2); anything else keeps source order (3)."""
    if isinstance(subgoal, (CompareSubgoal, EmptyCond)):
        return (0, 0, 0.0)
    if isinstance(subgoal, PredSubgoal):
        if subgoal.negated:
            return (1, 0, 0.0)
        if not subgoal.args:
            return (2, 0, 0.0)
        est = _scan_estimate(subgoal, bound, ctx)
        if est is not None:
            return (2, 0, est)
        bound_args = sum(
            1 for arg in subgoal.args if not (term_vars(arg) - bound)
        )
        return (2, 1, 1.0 - bound_args / len(subgoal.args))
    return (3, 0, 0.0)


# ---------------------------------------------------------------------- #
# the passes
# ---------------------------------------------------------------------- #


def pull_selections(state: PlanState, ctx: PassContext) -> None:
    """Hoist comparison/emptiness tests to their earliest admissible slot.

    Every other subgoal keeps its relative order, and nothing crosses a
    fixed subgoal (pending tests flush, in source order, before the
    barrier they preceded).
    """
    body = state.body
    new_order: List[int] = []
    bound: Set[str] = set(ctx.bound)
    pending: List[int] = []  # tests not yet admissible, source order

    def place_ready() -> None:
        nonlocal bound
        placed = True
        while placed:
            placed = False
            for i in list(pending):
                if _admissible(body[i], bound, ctx):
                    pending.remove(i)
                    new_order.append(i)
                    bound |= subgoal_binds(body[i], bound)
                    placed = True

    def flush_pending() -> None:
        nonlocal bound
        for i in pending:
            new_order.append(i)
            bound |= subgoal_binds(body[i], bound)
        pending.clear()

    for i in state.order:
        subgoal = body[i]
        if is_fixed_subgoal(subgoal, ctx.call_fixedness):
            flush_pending()
            new_order.append(i)
            bound |= subgoal_binds(subgoal, bound)
            continue
        if isinstance(subgoal, (CompareSubgoal, EmptyCond)):
            pending.append(i)
            place_ready()
            continue
        new_order.append(i)
        bound |= subgoal_binds(subgoal, bound)
        place_ready()
    flush_pending()
    state.order = new_order


def join_order(state: PlanState, ctx: PassContext) -> None:
    """Greedy cheapest-admissible-next schedule within each segment.

    Fixed subgoals delimit segments and keep their positions.  A pinned
    subgoal (the seminaive delta literal, usually the smallest source)
    leads its segment.  If no remaining subgoal is admissible the rest is
    emitted in source order -- the later safety check reports the real
    error with source positions.
    """
    body = state.body
    result: List[int] = []
    bound: Set[str] = set(ctx.bound)
    segment: List[int] = []

    def flush_segment() -> None:
        nonlocal bound
        pending = list(segment)
        segment.clear()
        pinned = ctx.pinned_first
        if (
            pinned is not None
            and pinned in pending
            and _admissible(body[pinned], bound, ctx)
        ):
            pending.remove(pinned)
            result.append(pinned)
            bound |= subgoal_binds(body[pinned], bound)
        while pending:
            best = None
            for i in pending:
                if not _admissible(body[i], bound, ctx):
                    continue
                key = (_score(body[i], bound, ctx), i)
                if best is None or key < best[0]:
                    best = (key, i)
            if best is None:
                for i in pending:
                    result.append(i)
                    bound |= subgoal_binds(body[i], bound)
                return
            _, i = best
            pending.remove(i)
            result.append(i)
            bound |= subgoal_binds(body[i], bound)

    for i in state.order:
        if is_fixed_subgoal(body[i], ctx.call_fixedness):
            flush_segment()
            result.append(i)
            bound |= subgoal_binds(body[i], bound)
        else:
            segment.append(i)
    flush_segment()
    state.order = result


def push_projections(state: PlanState, ctx: PassContext) -> None:
    """Annotate scans with the variables still *live* after them.

    Only fires when the caller opts in and supplies ``required_vars`` (the
    rule's head variables): projecting early merges bindings that differ
    only on dead variables, which is sound under set semantics but would
    change aggregate multiplicities -- so the NAIL! evaluator enables it
    for aggregate-free rules only -- and the Glue VM's positional
    supplementary layout cannot drop columns mid-statement.
    """
    if not ctx.allow_projection or ctx.required_vars is None:
        return
    body = state.body
    order = state.order
    needed_after: List[Set[str]] = [set() for _ in order]
    needed: Set[str] = set(ctx.required_vars)
    for pos in range(len(order) - 1, -1, -1):
        needed_after[pos] = set(needed)
        needed |= subgoal_vars(body[order[pos]])
    bound: Set[str] = set(ctx.bound)
    for pos, i in enumerate(order):
        subgoal = body[i]
        bound |= subgoal_binds(subgoal, bound)
        if not isinstance(subgoal, PredSubgoal) or subgoal.negated:
            continue
        live = bound & needed_after[pos]
        if live < bound:
            state.project[i] = tuple(sorted(live))


DEFAULT_COST_PIPELINE: Tuple[str, ...] = (
    "pull-selections",
    "join-order",
    "push-projections",
)

PASSES: Dict[str, Callable[[PlanState, PassContext], None]] = {
    "pull-selections": pull_selections,
    "join-order": join_order,
    "push-projections": push_projections,
}


# ---------------------------------------------------------------------- #
# estimate annotation and the public facade
# ---------------------------------------------------------------------- #


def _annotate(
    state: PlanState, ctx: PassContext
) -> Tuple[Tuple[PlanStep, ...], Dict[str, float]]:
    """Walk the schedule once, propagating bound vars, row estimates and
    per-variable distinct-count estimates.

    A scan binding a fresh variable at column ``c`` gives it
    ``distinct(c)``, capped by the running estimate.  ``group_by`` caps the
    estimate at the product of its (cumulative) group variables' distinct
    counts -- one binding per group -- when every factor is known, and
    keeps the input estimate as an upper bound otherwise; an aggregate
    comparison keeps that per-group estimate.
    """
    body = state.body
    bound: Set[str] = set(ctx.bound)
    est: Optional[float] = (
        float(ctx.input_size) if ctx.input_size is not None else None
    )
    distinct: Dict[str, float] = {}
    group_vars: Set[str] = set()
    steps: List[PlanStep] = []
    for i in state.order:
        subgoal = body[i]
        est_in = est
        kind = "other"
        source_rows: Optional[int] = None
        probe_cols: Tuple[int, ...] = ()
        if isinstance(subgoal, GroupBySubgoal):
            kind = "fixed"
            group_vars |= {t.name for t in subgoal.terms if isinstance(t, Var)}
            if group_vars <= distinct.keys():
                groups = math.prod(distinct[name] for name in group_vars)
                est = groups if est is None else min(est, groups)
        elif is_aggregating_subgoal(subgoal):
            kind = "fixed"  # one value per group: the estimate stands
        elif is_fixed_subgoal(subgoal, ctx.call_fixedness):
            kind = "fixed"
            est = None  # side effects or a call: size unknowable here
        elif isinstance(subgoal, PredSubgoal):
            lit = classify_join_columns(
                subgoal.pred, subgoal.args, frozenset(bound), subgoal.negated
            )
            probe_cols = lit.probe_cols
            if subgoal.negated:
                kind = "neg"  # anti-join: est stays an upper bound
            else:
                kind = "scan"
                snap = None
                if not term_vars(subgoal.pred):
                    snap = ctx.stats.lookup(subgoal.pred, len(subgoal.args))
                if snap is not None:
                    source_rows = snap.rows
                    if est is not None:
                        est = est * snap.est_matches(probe_cols)
                    for col, arg in enumerate(subgoal.args):
                        d = snap.distinct(col)
                        if (
                            d is not None
                            and isinstance(arg, Var)
                            and not arg.is_anonymous
                            and arg.name not in bound
                        ):
                            d = d if est is None else min(d, est)
                            distinct[arg.name] = min(d, distinct.get(arg.name, d))
                else:
                    est = None
        elif isinstance(subgoal, CompareSubgoal):
            if subgoal_binds(subgoal, bound):
                kind = "bind"
            else:
                kind = "filter"
                if est is not None:
                    est = est * filter_selectivity(subgoal.op)
        elif isinstance(subgoal, EmptyCond):
            kind = "filter"  # whole-set test: keeps all bindings or none
        else:
            est = None
        bound |= subgoal_binds(subgoal, bound)
        steps.append(
            PlanStep(
                index=i,
                subgoal=subgoal,
                kind=kind,
                est_in=est_in,
                est_rows=est,
                source_rows=source_rows,
                probe_cols=probe_cols,
                project=state.project.get(i),
            )
        )
    return tuple(steps), distinct


def optimize(
    body,
    stats=None,
    bound=frozenset(),
    *,
    input_size: Optional[float] = 1.0,
    pipeline: Tuple[str, ...] = DEFAULT_COST_PIPELINE,
    call_fixedness: Optional[CallFixedness] = None,
    call_bound_arity: Optional[CallBoundArity] = None,
    pinned_first: Optional[int] = None,
    required_vars: Optional[Set[str]] = None,
    allow_projection: bool = False,
) -> Plan:
    """Plan a rule/statement body: the public planner facade.

    ``body`` is a sequence of subgoals; ``stats`` is a
    :class:`~repro.opt.stats.StatsContext` or a ``(pred, arity) ->
    Relation | RelationSnapshot | int | sized | None`` source; ``bound``
    names the variables ground before the body runs (seed/demand
    bindings).  ``pipeline`` names the passes to run (see :data:`PASSES`);
    the default runs ``pull-selections``, ``join-order`` and
    ``push-projections``, and ``pipeline=()`` keeps the written order and
    only annotates estimates.
    """
    ctx = PassContext(
        stats=stats if isinstance(stats, StatsContext) else StatsContext(stats),
        bound=set(bound),
        input_size=input_size,
        call_fixedness=call_fixedness or _no_call_info,
        call_bound_arity=call_bound_arity or _no_call_info,
        pinned_first=pinned_first,
        required_vars=required_vars,
        allow_projection=allow_projection,
    )
    state = PlanState(body=tuple(body), order=list(range(len(body))))
    for name in pipeline:
        PASSES[name](state, ctx)
    steps, distinct = _annotate(state, ctx)
    return Plan(body=state.body, steps=steps, passes=tuple(pipeline), distinct=distinct)
