"""Compiled plans: the instruction set of the Glue virtual machine.

A plan is a list of steps; each step transforms the stream of supplementary
rows (paper Section 3.2).  Steps are compiled closures over column
positions, so execution does no name lookups.  ``is_barrier`` marks the
steps that force a pipeline break (paper Section 9): procedure calls,
aggregators, and update subgoals.

Steps are executed by :class:`repro.vm.machine.Machine`; the ``rt``
parameter below is that machine (duck-typed to avoid an import cycle).
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.scope import PredInfo
from repro.errors import GlueRuntimeError
from repro.glue.builtins import compare_terms
from repro.lang.ast import AssignStmt, RuleDecl
from repro.opt.cache import PlanCache
from repro.opt.literal import LiteralPlan, trace_join
from repro.record import Record
from repro.storage.relation import matching_rows
from repro.terms.matching import match_tuple
from repro.terms.term import Term, is_ground

Row = Tuple[Term, ...]
RowFn = Callable[[Row], Term]
PatternFn = Callable[[Row], Tuple[Term, ...]]


class PredRef(Record):
    """A (possibly dynamic) reference to a predicate.

    ``pred`` may contain variables -- a HiLog predicate-variable subgoal --
    in which case ``info`` is None and ``candidates`` holds the
    compile-time narrowed candidate set.
    """

    __slots__ = ("pred", "arity", "info", "candidates")

    def __init__(self, pred: Term, arity: int, info: Optional[PredInfo] = None,
                 candidates: Tuple[PredInfo, ...] = ()) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "info", info)
        object.__setattr__(self, "candidates", candidates)


def _probe_key(key_build, row: Row) -> Row:
    return tuple(row[pos] if pos is not None else const for pos, const in key_build)


def _no_group(row: Row) -> Row:
    return ()


def _joinable_relation(relation):
    """The hashable Relation behind ``relation``, or None.

    ``resolve_relation`` may hand back a demand-driven NAIL! view that has
    no stored extension to index; such sources keep per-row ``select``.
    """
    if hasattr(relation, "build_index"):
        return relation
    joinable = getattr(relation, "joinable_relation", None)
    if joinable is not None:
        return joinable()
    return None


class Step:
    """Base class: a plan step.  ``columns_out`` names the columns of the
    rows it emits; the compiler sets it after building the step."""

    __slots__ = ("columns_out",)
    is_barrier = False  # True -> a pipeline break comes before the step

    # Non-barrier steps implement iterate(); barrier steps implement
    # materialize_apply() over a fully materialized row list.
    def iterate(self, rows: Iterable[Row], rt, frame) -> Iterator[Row]:
        raise NotImplementedError

    def materialize_apply(self, rows: List[Row], rt, frame) -> List[Row]:
        raise NotImplementedError


def _candidates_fn(target, lit: LiteralPlan, key_build, counters):
    """Candidate rows per supplementary row: a bucket of the stored side's
    persistent hash index when the literal has key columns, else a full
    scan."""
    if not lit.probe_cols:

        def scan(row):
            counters.tuples_scanned += len(target)
            return target.rows()

        return scan
    index = target.build_index(lit.probe_cols)

    def probe(row):
        hits = index.bucket(_probe_key(key_build, row))
        counters.index_lookups += 1
        counters.index_probe_tuples += len(hits)
        return hits

    return probe


def _passes_eq_checks(stored: Row, eq_checks) -> bool:
    return all(stored[c] == stored[c0] for c, c0 in eq_checks)


class _LiteralStep(Step):
    """A scan or anti-join over one stored/derived relation.

    ``lit`` is the literal's :class:`~repro.opt.literal.LiteralPlan`,
    classified once at compile time against the statement's bound columns,
    and ``key_build`` its probe key positionally
    (:meth:`~repro.opt.literal.LiteralPlan.key_build`).  At run time the
    step keeps one join state per resolved source (dynamic-name scans get
    one per distinct name) and runs it per supplementary row: a hash probe,
    not a relation-wide match.
    """

    __slots__ = ("ref", "pattern_fn", "lit", "key_build", "new_vars", "name_fn", "est_rows")

    def __init__(self, ref: PredRef, pattern_fn: PatternFn, lit: LiteralPlan,
                 key_build: Tuple[Tuple[Optional[int], Optional[Term]], ...],
                 new_vars: Tuple[str, ...] = (), name_fn: Optional[RowFn] = None,
                 est_rows: Optional[float] = None) -> None:
        self.ref = ref
        self.pattern_fn = pattern_fn
        self.lit = lit
        self.key_build = key_build
        self.new_vars = new_vars
        self.name_fn = name_fn  # dynamic predicate-name instantiation
        self.est_rows = est_rows  # planner's output-size estimate

    def iterate(self, rows, rt, frame):
        ref = self.ref
        name_fn = self.name_fn
        # name -> [emit(row) -> output rows, strategy, source size,
        #          rows in, rows out]
        states: Dict[Term, list] = {}
        try:
            for row in rows:
                name = ref.pred if name_fn is None else name_fn(row)
                state = states.get(name)
                if state is None:
                    relation = rt.resolve_relation(ref, name, frame)
                    state = states[name] = [*self._join_state(relation, rt), 0, 0]
                state[3] += 1
                out = state[0](row)
                state[4] += len(out)
                yield from out
        finally:
            for name, (_emit, strategy, source, rows_in, rows_out) in states.items():
                trace_join(
                    rt.ctx.tracer, name, self.lit, strategy, rows_in, source,
                    rows_out, self.est_rows,
                )

    def _join_state(self, relation, rt):
        """``(emit(row) -> output rows, strategy, source size)`` for one
        resolved source, dispatched on the literal's strategy label."""
        raise NotImplementedError


class ScanStep(_LiteralStep):
    """Join the supplementary relation with a stored/derived relation."""

    __slots__ = ()

    def _join_state(self, relation, rt):
        lit = self.lit
        counters = rt.ctx.counters
        new_vars = self.new_vars
        pattern_fn = self.pattern_fn
        target = _joinable_relation(relation)
        if target is None:
            # Demand-driven NAIL! view: no stored extension to hash.
            def select_rows(row):
                return [
                    row + tuple(b[v] for v in new_vars)
                    for b in relation.select(pattern_fn(row))
                ]

            return select_rows, "select", None
        counters.glue_hash_joins += 1
        strategy = lit.vm_strategy
        key_build = self.key_build
        eq_checks = lit.eq_checks
        extract = lit.extract_cols
        if strategy == "member":

            def member(row):
                if _probe_key(key_build, row) in target:
                    counters.index_probe_tuples += 1
                    return (row,)
                return ()

            return member, strategy, len(target)
        if strategy.endswith("+match"):
            # Compound residue: general matching per candidate row.
            candidates = _candidates_fn(target, lit, key_build, counters)

            def match_rows(row):
                patterns = pattern_fn(row)
                out = []
                for stored in candidates(row):
                    bindings = match_tuple(patterns, stored)
                    if bindings is not None:
                        out.append(row + tuple(bindings[v] for v in new_vars))
                return out

            return match_rows, strategy, len(target)
        if strategy == "probe":
            if not rt.ctx.oracles.row_engine and hasattr(target, "uid"):
                return self._kernel_probe(target, rt), strategy, len(target)
            probe_hits = _candidates_fn(target, lit, key_build, counters)

            def probe(row):
                return [
                    row + tuple(stored[c] for c in extract)
                    for stored in probe_hits(row)
                    if not eq_checks or _passes_eq_checks(stored, eq_checks)
                ]

            return probe, strategy, len(target)

        # No key columns and a row-independent pattern: compute the new
        # column fragments once and broadcast them across all rows.
        fragments = None

        def broadcast(row):
            nonlocal fragments
            if fragments is None:
                counters.tuples_scanned += len(target)
                if extract is not None:
                    fragments = [
                        tuple(stored[c] for c in extract)
                        for stored in target.rows()
                        if not eq_checks or _passes_eq_checks(stored, eq_checks)
                    ]
                else:
                    patterns = pattern_fn(row)
                    fragments = []
                    for stored in target.rows():
                        bindings = match_tuple(patterns, stored)
                        if bindings is not None:
                            fragments.append(tuple(bindings[v] for v in new_vars))
            return [row + fragment for fragment in fragments]

        return broadcast, strategy, len(target)

    def _kernel_probe(self, target, rt):
        """The columnar probe: the suffix table pre-applies eq-checks and
        the extraction template once per (relation version, literal), so
        the per-row work is one dict lookup plus a concatenation.  Counter
        charges match the row probe exactly: one lookup per row, probe
        tuples by raw bucket."""
        counters = rt.ctx.counters
        table, cached = rt.ctx.db.columnar.glue_probe_table(target, self.lit)
        tracer = rt.ctx.tracer
        if tracer.enabled:
            tracer.event(
                "batch_kernel",
                f"glue:{target.name}/{target.arity}",
                kernel="probe",
                batch=len(target),
                cache=cached,
                rows=sum(len(sfx) for _raw, sfx in table.values()),
            )
        key_build = self.key_build
        pos, const = key_build[0]
        if len(key_build) == 1 and pos is not None:

            def probe_scalar(row):
                counters.index_lookups += 1
                entry = table.get(row[pos])
                if entry is None:
                    return ()
                raw, suffixes = entry
                counters.index_probe_tuples += raw
                return [row + sfx for sfx in suffixes]

            return probe_scalar
        if len(key_build) > 1:
            key_of = partial(_probe_key, key_build)
        else:
            # A one-column table is keyed by the bare value; a constant-only
            # key is the same lookup for every row (VM-only: NAIL! probes
            # once and broadcasts).
            def key_of(_row):
                return const

        def probe_keyed(row):
            counters.index_lookups += 1
            entry = table.get(key_of(row))
            if entry is None:
                return ()
            raw, suffixes = entry
            counters.index_probe_tuples += raw
            return [row + sfx for sfx in suffixes]

        return probe_keyed


class NegScanStep(_LiteralStep):
    """Anti-join: keep rows with no matching tuple (safe negation)."""

    __slots__ = ()

    def _join_state(self, relation, rt):
        """Emit ``(row,)`` when the row has no witness, ``()`` otherwise."""
        lit = self.lit
        counters = rt.ctx.counters
        pattern_fn = self.pattern_fn
        target = _joinable_relation(relation)
        if target is None:
            def select_absent(row):
                if next(iter(relation.select(pattern_fn(row))), None) is None:
                    return (row,)
                return ()

            return select_absent, "anti-select", None
        counters.glue_hash_joins += 1
        strategy = lit.vm_strategy
        key_build = self.key_build
        eq_checks = lit.eq_checks
        if strategy == "anti-member":

            def absent(row):
                if _probe_key(key_build, row) in target:
                    counters.index_probe_tuples += 1
                    return ()
                return (row,)

            return absent, strategy, len(target)
        if strategy == "anti-probe":
            probe_hits = _candidates_fn(target, lit, key_build, counters)

            def anti_probe(row):
                for stored in probe_hits(row):
                    if not eq_checks or _passes_eq_checks(stored, eq_checks):
                        return ()
                return (row,)

            return anti_probe, strategy, len(target)
        if strategy.endswith("+match"):
            candidates = _candidates_fn(target, lit, key_build, counters)

            def anti_match(row):
                patterns = pattern_fn(row)
                if any(match_tuple(patterns, s) is not None for s in candidates(row)):
                    return ()
                return (row,)

            return anti_match, strategy, len(target)

        # Row-independent pattern: one existence test serves every row.
        verdict = None

        def anti_static(row):
            nonlocal verdict
            if verdict is None:
                counters.tuples_scanned += len(target)
                patterns = pattern_fn(row)
                verdict = not any(
                    match_tuple(patterns, s) is not None for s in target.rows()
                )
            return (row,) if verdict else ()

        return anti_static, strategy, len(target)


class CompareStep(Step):
    """A comparison filter: ``left op right`` over bound expressions."""

    __slots__ = ("op", "left_fn", "right_fn")

    def __init__(self, op: str, left_fn: RowFn, right_fn: RowFn) -> None:
        self.op = op
        self.left_fn = left_fn
        self.right_fn = right_fn

    def iterate(self, rows, rt, frame):
        op, left_fn, right_fn = self.op, self.left_fn, self.right_fn
        for row in rows:
            if compare_terms(op, left_fn(row), right_fn(row)):
                yield row


class BindStep(Step):
    """``Var = expr`` with Var unbound: extend each row with the value."""

    __slots__ = ("var", "fn")

    def __init__(self, var: str, fn: RowFn) -> None:
        self.var = var
        self.fn = fn

    def iterate(self, rows, rt, frame):
        fn = self.fn
        for row in rows:
            yield row + (fn(row),)


class TruthStep(Step):
    """The literal ``true`` (identity) or ``false`` (annihilator)."""

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value

    def iterate(self, rows, rt, frame):
        return iter(rows) if self.value else iter(())


class GroupByStep(Step):
    """``group_by(...)``: a compile-time partition marker.

    The grouping columns are baked into the following aggregate steps, so
    at run time this step is the identity; it exists in the plan so costs
    and explanations show where the partition happens.
    """

    __slots__ = ("group_cols",)

    def __init__(self, group_cols: Tuple[str, ...] = ()) -> None:
        self.group_cols = group_cols

    def iterate(self, rows, rt, frame):
        return iter(rows)


class AggStep(Step):
    """An aggregation subgoal (barrier; paper Sections 3.3 and 9).

    Computes ``agg_op`` over the per-tuple values of ``arg_fn`` within each
    group (``group_positions`` select the grouping columns fixed by earlier
    group_by subgoals).  If ``binds`` the result extends each row as a new
    column; otherwise rows are filtered by ``compare_op(left_fn(row), agg)``.

    ``per_group`` is set by the compiler when nothing after the step reads
    a column other than the group columns and the bound variable, and no
    later subgoal aggregates (paper Section 9: shrink the supplementary
    relation at a break).  The step then emits one row per group -- the
    first member (binding form) or the first member that passes the filter
    (filter form) -- in first-occurrence order.  The aggregator itself
    still ranges over every input tuple.
    """

    __slots__ = ("agg_op", "arg_fn", "binds", "compare_op", "left_fn", "group_positions",
                 "per_group")

    def __init__(self, agg_op: str, arg_fn: RowFn, binds: bool, compare_op: str = "=",
                 left_fn: Optional[RowFn] = None, group_positions: Tuple[int, ...] = (),
                 per_group: bool = False) -> None:
        self.agg_op = agg_op
        self.arg_fn = arg_fn
        self.binds = binds
        self.compare_op = compare_op
        self.left_fn = left_fn
        self.group_positions = group_positions
        self.per_group = per_group

    is_barrier = True

    def materialize_apply(self, rows, rt, frame):
        from repro.glue.aggregates import apply_aggregate

        if not rows:
            return []
        # Aggregation is over the supplementary *relation*.  The machine
        # already deduplicated it at the break unless it keeps duplicates.
        if rt.ctx.oracles.keep_duplicates:
            rows = list(dict.fromkeys(rows))
        # A group key is the row's group-column tuple, or the bare value
        # when there is one group column (itemgetter's shape).
        positions = self.group_positions
        key_of = itemgetter(*positions) if positions else _no_group
        arg_fn = self.arg_fn
        values: Dict[object, List[Term]] = {}
        first: Dict[object, Row] = {}
        for row in rows:
            key = key_of(row)
            group = values.get(key)
            if group is None:
                values[key] = [arg_fn(row)]
                first[key] = row
            else:
                group.append(arg_fn(row))
        agg_of: Dict[object, Term] = {
            key: apply_aggregate(self.agg_op, group) for key, group in values.items()
        }
        if self.binds:
            if self.per_group:
                return [row + (agg_of[key],) for key, row in first.items()]
            return [row + (agg_of[key_of(row)],) for row in rows]
        compare_op, left_fn = self.compare_op, self.left_fn
        if self.per_group:
            first_pass: Dict[object, Row] = {}
            for row in rows:
                key = key_of(row)
                if key not in first_pass and compare_terms(
                    compare_op, left_fn(row), agg_of[key]
                ):
                    first_pass[key] = row
            return list(first_pass.values())
        return [
            row
            for row in rows
            if compare_terms(compare_op, left_fn(row), agg_of[key_of(row)])
        ]


class CallStep(Step):
    """A call to a Glue procedure, builtin or foreign procedure (barrier).

    "When a Glue procedure is used as a subgoal it is called once on all of
    the bindings for its input arguments" (paper Section 4): the step
    projects the supplementary rows onto the input arguments, calls the
    procedure once, and joins the result back.
    """

    __slots__ = ("ref", "input_fns", "free_pattern_fn", "new_vars", "fixed")

    def __init__(self, ref: PredRef, input_fns: Tuple[RowFn, ...], free_pattern_fn: PatternFn,
                 new_vars: Tuple[str, ...], fixed: bool = True) -> None:
        self.ref = ref
        self.input_fns = input_fns
        self.free_pattern_fn = free_pattern_fn  # patterns for the output (free) arguments
        self.new_vars = new_vars
        self.fixed = fixed

    is_barrier = True

    def materialize_apply(self, rows, rt, frame):
        from repro.terms.matching import match_tuple

        if not rows:
            return []
        bound_arity = len(self.input_fns)
        inputs: Dict[Row, None] = {}
        input_of: List[Row] = []
        for row in rows:
            key = tuple(fn(row) for fn in self.input_fns)
            inputs[key] = None
            input_of.append(key)
        result_rows = rt.call_predicate(self.ref, list(inputs), frame)
        by_input: Dict[Row, List[Row]] = {}
        for res in result_rows:
            by_input.setdefault(tuple(res[:bound_arity]), []).append(res)
        out: List[Row] = []
        for row, key in zip(rows, input_of):
            for res in by_input.get(key, ()):
                free_patterns = self.free_pattern_fn(row)
                bindings = match_tuple(free_patterns, res[bound_arity:])
                if bindings is not None:
                    out.append(row + tuple(bindings[v] for v in self.new_vars))
        return out


class DynamicStep(Step):
    """A predicate-variable subgoal whose candidates include callables, so
    the class dispatch happens at run time (the un-optimized path; the
    compile-time dereferencing of paper Section 9 avoids this step whenever
    the candidate set contains only stored relations)."""

    __slots__ = ("ref", "name_fn", "pattern_fn", "new_vars")

    def __init__(self, ref: PredRef, name_fn: RowFn, pattern_fn: PatternFn,
                 new_vars: Tuple[str, ...]) -> None:
        self.ref = ref
        self.name_fn = name_fn
        self.pattern_fn = pattern_fn
        self.new_vars = new_vars

    is_barrier = True

    def materialize_apply(self, rows, rt, frame):
        out: List[Row] = []
        for row in rows:
            name = self.name_fn(row)
            relation = rt.resolve_relation(self.ref, name, frame, dynamic_dispatch=True)
            patterns = self.pattern_fn(row)
            for bindings in relation.select(patterns):
                out.append(row + tuple(bindings[v] for v in self.new_vars))
        return out


class UpdateStep(Step):
    """An EDB-updating body subgoal ``++p``/``--p`` (barrier).

    Inserts are ground per-row instantiations; deletes accept anonymous
    variables as wildcards and remove all matching tuples
    (:func:`~repro.storage.relation.matching_rows`).  Each relation
    the subgoal touches gets one batch: one ``insert_new`` or one
    ``delete_many``, so one version bump and one change-log entry.
    """

    __slots__ = ("op", "ref", "pattern_fn", "name_fn")

    def __init__(self, op: str, ref: PredRef, pattern_fn: PatternFn,
                 name_fn: Optional[RowFn] = None) -> None:
        self.op = op  # "++" or "--"
        self.ref = ref
        self.pattern_fn = pattern_fn
        self.name_fn = name_fn

    is_barrier = True

    def materialize_apply(self, rows, rt, frame):
        # Each distinct instantiation once, grouped by predicate name.
        batches: Dict[Term, Dict[Row, None]] = {}
        for row in rows:
            name = self.name_fn(row) if self.name_fn is not None else self.ref.pred
            batches.setdefault(name, {})[self.pattern_fn(row)] = None
        for name, batch in batches.items():
            relation = rt.resolve_relation(self.ref, name, frame, for_update=True)
            ground, wild = [], []
            for patterns in batch:
                (ground if all(map(is_ground, patterns)) else wild).append(patterns)
            if self.op == "++":
                if wild:
                    raise GlueRuntimeError(f"++{name}: insert needs ground arguments")
                relation.insert_new(ground)
                continue
            # A ground pattern is a row; a wildcard pattern is matched like
            # a query: a flat one through the indexes, any other by one
            # charged scan.
            for patterns in wild:
                ground += matching_rows(relation, patterns)
            relation.delete_many(ground)
        return rows


class EmptyStep(Step):
    """``empty(p(args))``: keep rows for which no tuple matches."""

    __slots__ = ("ref", "pattern_fn", "name_fn")

    def __init__(self, ref: PredRef, pattern_fn: PatternFn,
                 name_fn: Optional[RowFn] = None) -> None:
        self.ref = ref
        self.pattern_fn = pattern_fn
        self.name_fn = name_fn

    def iterate(self, rows, rt, frame):
        static_rel = None
        if self.name_fn is None:
            static_rel = rt.resolve_relation(self.ref, self.ref.pred, frame)
        for row in rows:
            relation = static_rel
            if relation is None:
                relation = rt.resolve_relation(self.ref, self.name_fn(row), frame)
            patterns = self.pattern_fn(row)
            if next(iter(relation.select(patterns)), None) is None:
                yield row


class UnchangedStep(Step):
    """``unchanged(p(...))`` (barrier: its evaluation must happen exactly
    once per statement execution, and its answer depends on history).

    True when the relation's version equals the version recorded the last
    time *this occurrence* ran in *this frame*; always false on first run.
    """

    __slots__ = ("ref",)

    def __init__(self, ref: PredRef) -> None:
        self.ref = ref

    is_barrier = True

    def materialize_apply(self, rows, rt, frame):
        relation = rt.resolve_relation(self.ref, self.ref.pred, frame)
        key = id(self)
        previous = frame.unchanged_state.get(key)
        current = relation.version
        frame.unchanged_state[key] = current
        if previous is not None and previous == current:
            return rows
        return []


class UnionStep(Step):
    """A body disjunction ``{ c1 | c2 }`` (the footnote-5 extension).

    Each alternative is a sub-plan evaluated over the incoming rows; the
    results are unioned.  ``extract`` maps each alternative's final column
    layout onto the canonical new-variable order.
    """

    __slots__ = ("alternatives", "new_vars")

    def __init__(self, alternatives: List[Tuple[List[Step], Tuple[int, ...]]],
                 new_vars: Tuple[str, ...] = ()) -> None:
        self.alternatives = alternatives
        self.new_vars = new_vars

    is_barrier = True

    def materialize_apply(self, rows, rt, frame):
        width = len(self.columns_out) - len(self.new_vars)
        out: List[Row] = []
        for plan, extract in self.alternatives:
            for res in rt.run_plan(plan, frame, rows):
                out.append(res[:width] + tuple(res[i] for i in extract))
        # Rows several alternatives derive are removed, and charged, as
        # duplicates are at a pipeline break.
        return out if rt.ctx.oracles.keep_duplicates else rt.dedup(out)


Plan = List[Step]


# --------------------------------------------------------------------- #
# compiled containers
# --------------------------------------------------------------------- #


class Replan:
    """What a statement compiled without some relation's size keeps so that
    any machine running it can plan it by live sizes (paper Section 10):
    the program's plan cache plans ``body`` and compiles a variant with
    :func:`repro.vm.compiler.compile_variant`.  The variant reuses the
    statement's resolved head, so ``scope`` is only read."""

    __slots__ = ("body", "ordered", "scope", "oracles", "call_fixedness", "call_bound_arity")

    def __init__(self, body: tuple, ordered: tuple, scope: object, oracles: object,
                 call_fixedness: Callable, call_bound_arity: Callable) -> None:
        self.body = body  # the body after the implicit-in prepend, unordered
        self.ordered = ordered  # the order compiled ahead of time
        self.scope = scope  # the compile-time Scope
        self.oracles = oracles  # the compile's Oracles
        # The planner's call information for ``scope``.
        self.call_fixedness = call_fixedness
        self.call_bound_arity = call_bound_arity


class CompiledStmt:
    """One compiled assignment statement.  ``replan`` is set only on
    statements the compiler marked for run-time re-planning."""

    __slots__ = ("plan", "head_ref", "head_fns", "op", "key_positions", "head_name_fn", "is_return",
                 "fixed", "source", "replan")

    def __init__(self, plan: Plan, head_ref: PredRef, head_fns: Tuple[RowFn, ...], op: str,
                 key_positions: Tuple[int, ...] = (), head_name_fn: Optional[RowFn] = None,
                 is_return: bool = False, fixed: bool = False,
                 source: Optional[AssignStmt] = None, replan: Optional[Replan] = None) -> None:
        self.plan = plan
        self.head_ref = head_ref
        self.head_fns = head_fns
        self.op = op  # ":=", "+=", "-=", "modify"
        self.key_positions = key_positions
        self.head_name_fn = head_name_fn
        self.is_return = is_return
        self.fixed = fixed
        self.source = source
        self.replan = replan


class CompiledRepeat:
    """A compiled repeat/until loop."""

    __slots__ = ("body", "until_alts", "source")

    def __init__(self, body: List[object], until_alts: List[Plan], source: object = None) -> None:
        self.body = body  # CompiledStmt | CompiledRepeat
        self.until_alts = until_alts
        self.source = source


class CompiledProc:
    """A compiled Glue procedure."""

    __slots__ = ("module", "name", "bound_params", "free_params", "locals", "body", "fixed",
                 "writes", "exported")

    def __init__(self, module: Optional[str], name: str, bound_params: Tuple[str, ...],
                 free_params: Tuple[str, ...], locals: Tuple[Tuple[str, int], ...],
                 body: List[object], fixed: bool = False, writes: bool = False,
                 exported: bool = False) -> None:
        self.module = module
        self.name = name
        self.bound_params = bound_params
        self.free_params = free_params
        self.locals = locals
        self.body = body
        self.fixed = fixed
        # Updates the EDB: an EDB or dynamic head, a ++/-- subgoal, or a call
        # of a writing or foreign procedure.  Unlike fixedness, aggregates and
        # builtin I/O do not make a procedure write.
        self.writes = writes
        self.exported = exported

    @property
    def arity(self) -> int:
        return len(self.bound_params) + len(self.free_params)

    @property
    def bound_arity(self) -> int:
        return len(self.bound_params)

    @property
    def key(self) -> Tuple[Optional[str], str, int]:
        return (self.module, self.name, self.arity)


class CompiledProgram:
    """A fully compiled Glue-Nail program: a value any number of machines
    may run at once.  ``plans`` caches the run-time plans and variants of
    its statements marked for re-planning."""

    __slots__ = ("procs", "exported", "rules", "script", "watches", "statement_count", "plans")

    def __init__(self, statement_count: int = 0) -> None:
        self.procs: Dict[Tuple[Optional[str], str, int], CompiledProc] = {}
        self.exported: Dict[Tuple[str, int], CompiledProc] = {}
        self.rules: List[RuleDecl] = []
        self.script: List[object] = []  # loose compiled stmts
        #: ``watch`` declarations (active rules); the system facade registers
        #: them with its SubscriptionManager after compilation.
        self.watches: List[object] = []
        self.statement_count = statement_count
        self.plans = PlanCache()

    def find_proc(self, name: str, arity: int, module: Optional[str] = None) -> CompiledProc:
        if module is not None:
            proc = self.procs.get((module, name, arity))
            if proc is not None:
                return proc
        proc = self.exported.get((name, arity))
        if proc is not None:
            return proc
        matches = [p for key, p in self.procs.items() if key[1] == name and key[2] == arity]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise GlueRuntimeError(f"no procedure {name}/{arity}")
        raise GlueRuntimeError(f"ambiguous procedure {name}/{arity}; give a module")
