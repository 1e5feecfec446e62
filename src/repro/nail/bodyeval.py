"""Bindings-based evaluation of NAIL! rule bodies.

The native engine evaluates rule bodies over binding dictionaries rather
than compiled positional plans: seminaive evaluation substitutes a *delta*
relation for one literal occurrence per pass, which is simplest with an
interpretive evaluator.  (The compiled path is the NAIL!-to-Glue pipeline,
which reuses the Glue VM.)

Joins are hash joins.  For each body literal the rule's
:class:`~repro.nail.rules.JoinPlanner` precomputes the shared-variable
join key, the constant positions and a flat extraction template, so
round-time work is key build + hash probe instead of rescanning the whole
relation once per accumulated binding (``O(|B|+|R|)`` instead of
``O(|B| x |R|)``).  Sources are *indexed*: ``rows_fn`` hands back a
:class:`~repro.storage.relation.Relation` (probed through its persistent,
incrementally-maintained hash indexes), a seminaive
:class:`~repro.nail.seminaive.DeltaRelation` (per-key hash maps built once
per round) or None (an absent relation).  Negation runs as a hash
anti-join, and a fully-ground negated literal is a single membership
test.  The binding-dict row engine stays as a differential baseline for
the columnar kernels, reachable only through
:mod:`repro.baselines.reference` (see :mod:`repro.oracles`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.analysis.bindings import expr_has_agg
from repro.col.batch import Batch, project_batch
from repro.col.kernels import run_broadcast, run_member, run_probe
from repro.errors import GlueRuntimeError
from repro.glue.aggregates import apply_aggregate
from repro.glue.builtins import compare_terms, eval_function, term_arith
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
from repro.nail.rules import JoinPlanner, RuleInfo
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.opt.cache import PlanCache
from repro.opt.literal import LiteralPlan, trace_join
from repro.opt.plan import Plan
from repro.oracles import PRODUCT, Oracles
from repro.storage.relation import Relation
from repro.terms.matching import instantiate, match, match_tuple, substitute
from repro.terms.term import Atom, Num, Term, Var, is_ground

Bindings = Dict[str, Term]
Row = Tuple[Term, ...]

_TRUE = Atom("true")
_FALSE = Atom("false")

# rows(name, arity) -> the stored rows for that predicate instance: a
# Relation, a seminaive DeltaRelation, or None.
RowsFn = Callable[[Term, int], object]


def eval_expr_bindings(expr, bindings: Bindings) -> Term:
    """Evaluate an aggregate-free expression under a bindings dict."""
    if isinstance(expr, Num):
        return expr
    if isinstance(expr, Var):
        value = bindings.get(expr.name)
        if value is None:
            raise GlueRuntimeError(f"unbound variable {expr.name} in expression")
        return value
    if isinstance(expr, Term):
        return instantiate(expr, bindings)
    if isinstance(expr, BinOp):
        return term_arith(
            expr.op,
            eval_expr_bindings(expr.left, bindings),
            eval_expr_bindings(expr.right, bindings),
        )
    if isinstance(expr, UnaryOp):
        return term_arith("-", Num(0), eval_expr_bindings(expr.operand, bindings))
    if isinstance(expr, FunCall):
        args = tuple(eval_expr_bindings(a, bindings) for a in expr.args)
        return eval_function(expr.name, args)
    raise GlueRuntimeError(f"cannot evaluate expression {expr!r}")


# ---------------------------------------------------------------------- #
# join sources
# ---------------------------------------------------------------------- #


class _EmptySource:
    """The source for an absent relation."""

    def __len__(self) -> int:
        return 0

    def scan(self):
        return ()

    def probe(self, cols, key):
        return ()

    def contains(self, row) -> bool:
        return False


_EMPTY_SOURCE = _EmptySource()


class _RelationSource:
    """A Relation as a join source: probes go through its persistent hash
    indexes (built on first use, maintained incrementally on insert, so a
    seminaive IDB relation is indexed once and stays indexed as it grows)."""

    __slots__ = ("relation",)

    def __init__(self, relation):
        self.relation = relation

    def __len__(self) -> int:
        return len(self.relation)

    def scan(self):
        relation = self.relation
        relation.counters.tuples_scanned += len(relation)
        return relation.rows()

    def probe(self, cols: Tuple[int, ...], key: Row):
        relation = self.relation
        hits = relation.build_index(cols).bucket(key)
        relation.counters.index_lookups += 1
        relation.counters.index_probe_tuples += len(hits)
        return hits

    def contains(self, row: Row) -> bool:
        if tuple(row) in self.relation:
            self.relation.counters.index_probe_tuples += 1
            return True
        return False

    def broadcast_columns(self, ctx, extract_cols: Tuple[int, ...]):
        """Cached-encode broadcast (see ``run_broadcast``): charges the
        full scan exactly like ``scan()``, then reuses the context's
        version-keyed interned columns for the actual encode."""
        relation = self.relation
        relation.counters.tuples_scanned += len(relation)
        return ctx.broadcast_columns(relation, extract_cols)


def _as_source(obj):
    """Adapt what ``rows_fn`` returned to the join-source protocol."""
    if obj is None:
        return _EMPTY_SOURCE
    if isinstance(obj, Relation):
        return _RelationSource(obj)
    return obj  # a seminaive DeltaRelation is a join source already


# ---------------------------------------------------------------------- #
# hash joins
# ---------------------------------------------------------------------- #


def _probe_key(key_cols, b: Bindings) -> Row:
    return tuple(
        value if kind == "const" else b[value] for _, kind, value in key_cols
    )


def _candidates(source, plan: LiteralPlan, b: Bindings):
    """The source rows a binding's key selects: a hash probe when the
    literal has key columns, else a full scan."""
    if plan.probe_cols:
        return source.probe(plan.probe_cols, _probe_key(plan.key_cols, b))
    return source.scan()


def _join_group(
    group: List[Bindings], source, plan: LiteralPlan, out: List[Bindings]
) -> None:
    """Join one homogeneously-bound group of bindings against a source,
    by the literal's strategy (``probe``, ``probe+match`` /
    ``scan+match`` or ``broadcast``)."""
    strategy = plan.strategy
    if strategy == "probe":
        # The hot path: hash probe on the shared-variable key, then flat
        # extraction of the new variables straight off each matching row.
        key_cols = plan.key_cols
        probe_cols = plan.probe_cols
        extract = plan.extract
        eq_checks = plan.eq_checks
        for b in group:
            key = _probe_key(key_cols, b)
            for row in source.probe(probe_cols, key):
                if eq_checks and any(row[c] != row[c0] for c, c0 in eq_checks):
                    continue
                extended = dict(b)
                for col, name in extract:
                    extended[name] = row[col]
                out.append(extended)
    elif strategy == "broadcast":
        # No shared variables: every binding matches the same candidate
        # rows, so compute the extension fragments once and broadcast them.
        fragments: List[Bindings] = []
        for row in _candidates(source, plan, {}):
            fragment = _fragment(row, plan)
            if fragment is not None:
                fragments.append(fragment)
        if not fragments:
            return
        for b in group:
            for fragment in fragments:
                if fragment:
                    extended = dict(b)
                    extended.update(fragment)
                    out.append(extended)
                else:
                    out.append(b)
    else:
        # probe+match / scan+match: compound residue.  Candidates (narrowed
        # by the hash probe when a key exists) go through general matching.
        for b in group:
            patterns = tuple(substitute(arg, b) for arg in plan.patterns)
            for row in _candidates(source, plan, b):
                extended = match_tuple(patterns, row, b)
                if extended is not None:
                    out.append(extended)


def _fragment(row: Row, plan: LiteralPlan) -> Optional[Bindings]:
    """The new variables a candidate row binds, or None when it fails the
    literal's residual constraints (eq-checks, compound patterns)."""
    if plan.eq_checks and any(row[c] != row[c0] for c, c0 in plan.eq_checks):
        return None
    fragment: Bindings = {}
    for col, name in plan.extract:
        fragment[name] = row[col]
    for col, pat in plan.complex_cols:
        fragment = match(pat, row[col], fragment)
        if fragment is None:
            return None
    return fragment


def _row_survives(row: Row, plan: LiteralPlan) -> bool:
    """Does a candidate satisfy the literal's residual constraints?"""
    if plan.eq_checks and any(row[c] != row[c0] for c, c0 in plan.eq_checks):
        return False
    return not plan.complex_cols or _fragment(row, plan) is not None


def _antijoin_group(
    group: List[Bindings], source, plan: LiteralPlan, out: List[Bindings]
) -> None:
    """Keep the bindings with *no* matching row: a hash anti-join, by the
    literal's strategy.  New variables of a negated literal are
    existential wildcards."""
    strategy = plan.strategy
    if strategy == "anti-member":
        # Fully ground after substitution: one membership test each.
        key_cols = plan.key_cols
        for b in group:
            if not source.contains(_probe_key(key_cols, b)):
                out.append(b)
    elif strategy == "anti-probe":
        for b in group:
            if not any(_row_survives(row, plan) for row in _candidates(source, plan, b)):
                out.append(b)
    elif strategy == "anti-static":
        # No bound variables at all: one answer for the whole group.
        if not any(_row_survives(row, plan) for row in _candidates(source, plan, {})):
            out.extend(group)
    else:
        # anti-probe+match / anti-scan+match: compound residue.
        for b in group:
            patterns = tuple(substitute(arg, b) for arg in plan.patterns)
            if not any(
                match_tuple(patterns, row, b) is not None
                for row in _candidates(source, plan, b)
            ):
                out.append(b)


def _grouped_literal(
    bindings_list: List[Bindings],
    index: int,
    subgoal: PredSubgoal,
    rows_fn: RowsFn,
    planner: JoinPlanner,
    tracer,
    est_rows: Optional[float] = None,
) -> List[Bindings]:
    """Join or anti-join a literal against a non-empty binding list.

    Every binding in the list binds the same variables (a body starts at
    ``[{}]`` and each step extends all bindings alike), so the literal is
    planned once.  A HiLog literal's bindings are grouped by the value of
    its predicate-name variables, so it costs one name substitution and
    one source resolution per distinct name, not one per binding.
    """
    plan = planner.plan_for(index, frozenset(bindings_list[0]))
    by_name: Dict[tuple, List[Bindings]] = {(): bindings_list}
    if plan.pred_vars:
        by_name = {}
        for b in bindings_list:
            by_name.setdefault(tuple(b.get(v) for v in plan.pred_vars), []).append(b)
    runner = _antijoin_group if plan.negated else _join_group
    out: List[Bindings] = []
    for values, group in by_name.items():
        name = subgoal.pred
        if values:
            if all(v is not None for v in values):
                name = substitute(name, dict(zip(plan.pred_vars, values)))
            if not is_ground(name):
                raise GlueRuntimeError(
                    f"predicate variable in {subgoal.pred} not bound at "
                    "evaluation time"
                )
        source = _as_source(rows_fn(name, plan.arity))
        before = len(out)
        runner(group, source, plan, out)
        trace_join(
            tracer, name, plan, plan.strategy, len(group), len(source),
            len(out) - before, est_rows,
        )
    return out


# ---------------------------------------------------------------------- #
# comparisons, aggregation, the body walk
# ---------------------------------------------------------------------- #


def _apply_compare(
    bindings_list: List[Bindings],
    subgoal: CompareSubgoal,
    group_vars: List[str],
    var_order: Tuple[str, ...] = (),
) -> List[Bindings]:
    left, right, op = subgoal.left, subgoal.right, subgoal.op
    left_agg = expr_has_agg(left)
    right_agg = expr_has_agg(right)
    if left_agg or right_agg:
        if left_agg and right_agg:
            raise GlueRuntimeError("aggregates on both sides of a comparison")
        if left_agg:
            left, right = right, left
            op = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}[op]
        if not isinstance(right, AggCall):
            raise GlueRuntimeError("an aggregate must be the whole comparison side")
        return _apply_aggregate_compare(
            bindings_list, left, op, right, group_vars, var_order
        )
    out: List[Bindings] = []
    binds_left = op == "=" and isinstance(left, Var) and not left.is_anonymous
    binds_right = op == "=" and isinstance(right, Var) and not right.is_anonymous
    for b in bindings_list:
        if binds_left and left.name not in b:
            value = eval_expr_bindings(right, b)
            extended = dict(b)
            extended[left.name] = value
            out.append(extended)
            continue
        if binds_right and right.name not in b:
            value = eval_expr_bindings(left, b)
            extended = dict(b)
            extended[right.name] = value
            out.append(extended)
            continue
        if compare_terms(op, eval_expr_bindings(left, b), eval_expr_bindings(right, b)):
            out.append(b)
    return out


def _dedup_bindings(
    bindings_list: List[Bindings], var_order: Tuple[str, ...] = ()
) -> List[Bindings]:
    """Deduplicate bindings using a precomputed variable order.

    The rule's :class:`~repro.nail.rules.JoinPlanner` supplies the order
    (every variable a binding can hold), so each binding's key is a flat
    O(k) projection -- no per-binding sort.
    """
    seen = set()
    out = []
    for b in bindings_list:
        key = tuple(b.get(name) for name in var_order)
        if key not in seen:
            seen.add(key)
            out.append(b)
    return out


def _project_bindings(
    bindings_list: List[Bindings], live: Tuple[str, ...]
) -> List[Bindings]:
    """Projection push-down: drop dead variables and merge the duplicates.

    Sound under set semantics (the final head set is unchanged); callers
    never apply it in aggregate rules, where binding multiplicity matters.
    """
    seen = set()
    out: List[Bindings] = []
    for b in bindings_list:
        key = tuple(b.get(name) for name in live)
        if key in seen:
            continue
        seen.add(key)
        out.append({name: b[name] for name in live if name in b})
    return out


def _apply_aggregate_compare(
    bindings_list: List[Bindings],
    left,
    op: str,
    agg: AggCall,
    group_vars: List[str],
    var_order: Tuple[str, ...] = (),
) -> List[Bindings]:
    if not bindings_list:
        return []
    bindings_list = _dedup_bindings(bindings_list, var_order)
    groups: Dict[Tuple, List[Bindings]] = {}
    for b in bindings_list:
        key = tuple(b.get(v) for v in group_vars)
        groups.setdefault(key, []).append(b)
    agg_of = {
        key: apply_aggregate(agg.op, [eval_expr_bindings(agg.arg, b) for b in members])
        for key, members in groups.items()
    }
    out: List[Bindings] = []
    binds = op == "=" and isinstance(left, Var) and not left.is_anonymous
    for b in bindings_list:
        value = agg_of[tuple(b.get(v) for v in group_vars)]
        if binds and left.name not in b:
            extended = dict(b)
            extended[left.name] = value
            out.append(extended)
        elif compare_terms(op, eval_expr_bindings(left, b), value):
            out.append(b)
    return out


# ---------------------------------------------------------------------- #
# columnar batch execution (see repro.col)
# ---------------------------------------------------------------------- #


def _find_columnar_context(decl: RuleDecl, rows_fn: RowsFn):
    """The shared per-database columnar context for this rule body.

    Ids from different relations meet in join keys, so every kernel in one
    body must encode through the same atom table; the first ground literal
    whose source is a database-owned Relation supplies it.  Bodies with no
    such literal (all deltas, iterables, or HiLog names) stay on the row
    engine.
    """
    for subgoal in decl.body:
        if not isinstance(subgoal, PredSubgoal):
            continue
        if not is_ground(subgoal.pred):
            continue
        obj = rows_fn(subgoal.pred, len(subgoal.args))
        ctx = getattr(obj, "columnar", None)
        if ctx is not None:
            return ctx
    return None


def _columnar_literal(
    batch: Batch,
    index: int,
    subgoal: PredSubgoal,
    fn: RowsFn,
    planner: JoinPlanner,
    ctx,
    tracer,
    est_rows: Optional[float],
) -> Optional[Batch]:
    """Evaluate one literal against a batch with a specialized kernel.

    Dispatches on the literal's strategy, as the row path does.  Returns
    the output batch, or None when this literal falls back to the row
    engine (HiLog predicate variables, compound-term residue, delta /
    iterable probes, anti-probes) -- the caller then decodes the batch and
    continues on the row path.  Kernels charge exactly the counters the
    row strategies charge and emit the same unified ``join`` trace events,
    plus one ``batch_kernel`` event carrying kernel-cache and batch-size
    detail.
    """
    plan = planner.plan_for(index, frozenset(batch.vars))
    if plan.pred_vars or plan.extract_cols is None:
        return None
    source = _as_source(fn(subgoal.pred, plan.arity))
    strategy = plan.strategy
    relation = None
    if isinstance(source, _RelationSource) and source.relation.columnar is ctx:
        relation = source.relation
    cached: Optional[str] = None  # kernel-cache status, for the trace
    if strategy == "broadcast":
        # Candidates come through the source's own probe/scan (one call
        # per batch), so delta scans charge ``tuples_scanned`` exactly as
        # the row engine's group-level scan does.
        out = run_broadcast(batch, plan, source, ctx.atoms, ctx)
    elif strategy == "anti-static":
        # Group-level test: one probe/scan decides for the whole batch.
        if any(_row_survives(row, plan) for row in _candidates(source, plan, {})):
            out = batch.take(())
        else:
            out = batch
    elif source is _EMPTY_SOURCE:
        # Nothing to match, nothing charged (the row strategies agree on
        # both points for absent sources).
        names = batch.vars + tuple(name for _col, name in plan.extract)
        out = Batch(names, [[] for _ in names], 0, batch.atoms) if strategy == "probe" else batch
    elif relation is None or strategy == "anti-probe":
        # Delta/iterable probes and anti-probes keep the row engine.
        return None
    elif strategy == "probe":
        table, cached = ctx.probe_table(relation, plan)
        out = run_probe(batch, plan, table, relation.counters, ctx.atoms)
    else:  # anti-member
        rowset, cached = ctx.rowset(relation)
        out = run_member(batch, plan, rowset, relation.counters, ctx.atoms)
    trace_join(
        tracer, subgoal.pred, plan, strategy, batch.length, len(source),
        out.length, est_rows,
    )
    if tracer.enabled:
        tracer.event(
            "batch_kernel",
            f"{subgoal.pred}/{plan.arity}",
            rows=out.length,
            kernel=strategy,
            batch=batch.length,
            cache=cached,
        )
    return out


def cost_plan(
    info: RuleInfo,
    rows_fn: RowsFn,
    plans: Optional[PlanCache] = None,
    delta_index: Optional[int] = None,
    oracles: Oracles = PRODUCT,
) -> Optional[Plan]:
    """The shared planner's plan for a rule body at current sizes, from
    ``plans`` (a throwaway cache when None), or None when the body runs
    in program order.

    Cost-based ordering applies to aggregate-free rules; aggregate rules
    (whose group_by scope is positional) and HiLog deltas needing earlier
    binders keep program order.  See the fallback matrix in
    docs/PERFORMANCE.md.

    Statistics come straight from ``rows_fn``: a resolved Relation is
    snapshotted once under its lock, a delta by size, and an absent
    relation counts as genuinely empty *right now* (scheduling it first
    annihilates the body immediately).  The seminaive delta literal is
    pinned first -- it is (almost always) the smallest source and must
    drive the join -- and its estimate conservatively uses the full
    relation's statistics.
    """
    body = info.rule.body
    if (
        oracles.written_order
        or info.has_aggregate
        or any(isinstance(s, GroupBySubgoal) for s in body)
        or (delta_index is not None and not is_ground(body[delta_index].pred))
    ):
        return None

    def stats_source(pred, arity):
        obj = rows_fn(pred, arity)
        return 0 if obj is None else obj

    return (plans if plans is not None else PlanCache()).get(
        body,
        stats=stats_source,
        pinned_first=delta_index,
        required_vars=info.head_vars,
        allow_projection=True,
    ).plan


def eval_rule_body_batch(
    info: RuleInfo,
    rows_fn: RowsFn,
    delta_index: Optional[int] = None,
    delta_rows_fn: Optional[RowsFn] = None,
    tracer: Tracer = NULL_TRACER,
    oracles: Oracles = PRODUCT,
    plans: Optional[PlanCache] = None,
) -> Union[List[Bindings], Batch]:
    """Evaluate a prepared rule's body; returns the final binding set.

    ``delta_index`` (an index into the body) redirects that single
    positive literal to ``delta_rows_fn`` -- the seminaive trick.  The
    product orders the body with the shared ``repro.opt`` planner (with
    projection push-down; ``plans`` is the engine's
    :class:`~repro.opt.cache.PlanCache`, a throwaway one when None) and
    runs the columnar batch kernels of ``repro.col``, so the result may
    be a :class:`~repro.col.batch.Batch` (decode with ``to_dicts()``, or
    hand it straight to :func:`derive_heads`).  ``oracles`` swaps in the
    differential baselines instead: the written order plus the
    delta-first rotation, and the dict-per-binding row engine (which
    charges identical cost counters).  ``tracer``, when enabled, receives
    one ``join`` event per (literal, binding group) with the strategy the
    engine chose and estimated vs. actual rows.
    """
    decl = info.rule
    planner = info.planner
    var_order = planner.var_order

    # Columnar batches apply to bodies without aggregates;
    # the kernels themselves fall back per literal for HiLog names,
    # compound residue, delta probes and anti-probes -- see the fallback
    # matrix in docs/PERFORMANCE.md.
    col_ctx = None
    if not oracles.row_engine and not info.has_aggregate:
        col_ctx = _find_columnar_context(decl, rows_fn)

    plan = cost_plan(info, rows_fn, plans, delta_index, oracles)
    if plan is not None:
        order = list(plan.order)
        est_of = {step.index: step.est_rows for step in plan.steps}
        project_of = {step.index: step.project for step in plan.steps}
    else:
        est_of = {}
        project_of = {}
        order = list(range(len(decl.body)))
        if (
            delta_index is not None
            and delta_index != 0
            and not info.has_aggregate
            and is_ground(decl.body[delta_index].pred)
        ):
            # Seminaive delta-first rotation: the delta is (almost always)
            # the smallest source, so it should drive the join rather than
            # be probed once per row of the full accumulated relations.
            # Moving a positive literal earlier only *adds* bindings at
            # every later subgoal, so negations and comparisons keep their
            # semantics; aggregate rules are excluded (group_by scope is
            # positional), as are HiLog deltas whose predicate variables
            # need earlier binders.
            order.remove(delta_index)
            order.insert(0, delta_index)

    bindings_list: Union[List[Bindings], Batch] = (
        [{}] if col_ctx is None else Batch.unit(col_ctx.atoms)
    )
    group_vars: List[str] = []
    for index in order:
        subgoal = decl.body[index]
        if not bindings_list:
            return []
        if (
            isinstance(subgoal, PredSubgoal)
            and not subgoal.args
            and subgoal.pred in (_TRUE, _FALSE)
        ):
            if (subgoal.pred == _TRUE) == subgoal.negated:
                return []
            continue
        if isinstance(bindings_list, Batch):
            stepped = None
            if isinstance(subgoal, PredSubgoal):
                fn = (
                    delta_rows_fn
                    if index == delta_index and not subgoal.negated
                    else rows_fn
                )
                stepped = _columnar_literal(
                    bindings_list, index, subgoal, fn, planner, col_ctx,
                    tracer, est_of.get(index),
                )
            if stepped is not None:
                bindings_list = stepped
                if not subgoal.negated:
                    live = project_of.get(index)
                    if live is not None and bindings_list.length:
                        bindings_list = project_batch(bindings_list, live)
                continue
            # Per-literal fallback: decode once and continue on the row
            # engine (comparisons, aggregates, residual literals).
            bindings_list = bindings_list.to_dicts(col_ctx.atoms)
        if isinstance(subgoal, PredSubgoal):
            fn = delta_rows_fn if index == delta_index and not subgoal.negated else rows_fn
            bindings_list = _grouped_literal(
                bindings_list, index, subgoal, fn, planner, tracer,
                est_of.get(index),
            )
            live = project_of.get(index)
            if live is not None and bindings_list and not subgoal.negated:
                bindings_list = _project_bindings(bindings_list, live)
        elif isinstance(subgoal, CompareSubgoal):
            bindings_list = _apply_compare(bindings_list, subgoal, group_vars, var_order)
        elif isinstance(subgoal, GroupBySubgoal):
            for term in subgoal.terms:
                if not isinstance(term, Var):
                    raise GlueRuntimeError("group_by arguments must be variables")
                if term.name not in group_vars:
                    group_vars.append(term.name)
        else:
            raise GlueRuntimeError(
                f"NAIL! rule bodies may not contain {type(subgoal).__name__}"
            )
    return bindings_list


class HeadBatch:
    """One rule's derived head rows for a ground-named predicate, still as
    interned id columns (one per head argument; there is at least one).

    What :func:`derive_heads` returns for a columnar batch, so the
    seminaive merge can dedup on ids (``repro.storage.uniondiff.uniondiff_ids``)
    and build Terms for new rows only.  Iterating decodes to the
    ``(name, row)`` pairs every other head shape derives to.
    """

    __slots__ = ("name", "cols", "atoms")

    def __init__(self, name: Term, cols: List[list], atoms):
        self.name = name
        self.cols = cols
        self.atoms = atoms

    def __len__(self) -> int:
        return len(self.cols[0])

    def __iter__(self):
        name = self.name
        decode = self.atoms.decode
        return iter([(name, row) for row in zip(*[decode(col) for col in self.cols])])


def _derive_heads_batch(decl: RuleDecl, batch: Batch) -> Optional[HeadBatch]:
    """Columnar head derivation: the head's id columns, nothing decoded.

    Applies when the head predicate is ground and every head argument (at
    least one) is either a ground term or a plain variable bound by the
    batch; compound head arguments, HiLog head names and argument-less
    heads fall back to per-binding instantiation (None).
    """
    if not decl.head_args or not is_ground(decl.head_pred):
        return None
    atoms = batch.atoms
    if atoms is None:
        return None
    columns = []
    for arg in decl.head_args:
        if isinstance(arg, Var):
            if arg.name not in batch.vars:
                return None
            columns.append(batch.col(arg.name))
        elif isinstance(arg, Term) and is_ground(arg):
            columns.append([atoms.intern(arg)] * batch.length)
        else:
            return None
    return HeadBatch(decl.head_pred, columns, atoms)


def derive_heads(
    info: RuleInfo, bindings_list: Union[List[Bindings], Batch]
) -> Union[List[Tuple[Term, Row]], HeadBatch]:
    """Instantiate the rule head for each binding: (relation name, row)
    pairs, or -- for a columnar batch and a flat ground-named head -- a
    :class:`HeadBatch` that iterates as such pairs."""
    decl = info.rule
    if isinstance(bindings_list, Batch):
        derived = _derive_heads_batch(decl, bindings_list)
        if derived is not None:
            return derived
        bindings_list = bindings_list.to_dicts()
    out: List[Tuple[Term, Row]] = []
    for b in bindings_list:
        name = instantiate(decl.head_pred, b)
        row = tuple(instantiate(arg, b) for arg in decl.head_args)
        out.append((name, row))
    return out
