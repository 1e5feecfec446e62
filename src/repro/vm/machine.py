"""The Glue virtual machine: plan execution, procedures, repeat loops.

One executor, the paper's Section 9 strategy: the nested-join,
tuple-at-a-time pipeline of the experimental implementation.  Fixed
subgoals (procedure calls, aggregators, updates) force pipeline breaks:
the supplementary relation is materialized, duplicate-eliminated, and the
pipeline restarts after the barrier.

The baselines the paper compares against run in the same loop, switched
on by :class:`repro.oracles.Oracles`: ``materialized`` (the textbook
strategy: each sup_i is stored and deduplicated before sup_{i+1} begins)
and ``keep_duplicates`` (no elimination at breaks).  Every configuration
produces identical head relations; the cost counters make the trade-off
measurable, which is what the paper's Section 9 observations are about.
"""

from __future__ import annotations

import sys
from functools import partial
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.scope import PredClass, pred_skeleton
from repro.errors import GlueRuntimeError
from repro.glue.builtins import BUILTIN_PROCS
from repro.oracles import PRODUCT, Oracles
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.stats import COUNTER_FIELDS, CostCounters, nonzero_delta
from repro.terms.term import Atom, Term
from repro.vm.compiler import compile_variant, scoped_stats
from repro.vm.plan import (
    CompiledProc,
    CompiledProgram,
    CompiledRepeat,
    CompiledStmt,
    Plan,
    PredRef,
    Row,
)
from repro.vm.explain import step_label, stmt_label

ForeignFn = Callable[["ExecContext", List[Row]], List[Row]]


class ForeignProc:
    """A Python function registered as a Glue procedure (the foreign
    language interface of paper Section 10, realised in Python)."""

    __slots__ = ("module", "name", "arity", "bound_arity", "fn", "fixed")

    def __init__(self, module: str, name: str, arity: int, bound_arity: int, fn: ForeignFn,
                 fixed: bool = True) -> None:
        self.module = module
        self.name = name
        self.arity = arity
        self.bound_arity = bound_arity
        self.fn = fn
        self.fixed = fixed


class ExecContext:
    """Everything the machine needs at run time."""

    def __init__(
        self,
        db: Optional[Database] = None,
        out=None,
        inp=None,
        max_loop_iterations: int = 1_000_000,
        oracles: Oracles = PRODUCT,
    ):
        self.db = db if db is not None else Database()
        self.counters: CostCounters = self.db.counters
        self.out = out if out is not None else sys.stdout
        self.inp = inp if inp is not None else sys.stdin
        self.max_loop_iterations = max_loop_iterations
        # Scan steps run planned hash joins over the cached suffix tables
        # of repro.col; the oracles swap in the per-probe row baseline and
        # the VM's own baselines (see Machine.run_plan).
        self.oracles = oracles
        self.tracer = self.db.tracer
        self.foreign: Dict[Tuple[str, int], ForeignProc] = {}
        self.nail_engine = None  # wired by repro.core.system

    def register_foreign(self, proc: ForeignProc) -> None:
        self.foreign[(proc.name, proc.arity)] = proc


class Frame:
    """One procedure invocation: local relations, in/return, loop state.

    "Each invocation of a procedure has its own copies of its local
    relations" (paper Section 4).
    """

    __slots__ = ("proc", "locals", "in_rel", "return_rel", "unchanged_state")

    def __init__(self, proc: Optional[CompiledProc], ctx: ExecContext):
        self.proc = proc
        self.locals: Dict[Tuple[str, int], Relation] = {}
        self.unchanged_state: Dict[int, int] = {}
        if proc is not None:
            for name, arity in proc.locals:
                self.locals[(name, arity)] = Relation(
                    Atom(name), arity, counters=ctx.counters, tracer=ctx.tracer
                )
            self.in_rel = Relation(
                Atom("in"), proc.bound_arity, counters=ctx.counters, tracer=ctx.tracer
            )
            self.return_rel = Relation(
                Atom("return"), proc.arity, counters=ctx.counters, tracer=ctx.tracer
            )
        else:
            self.in_rel = None
            self.return_rel = None


class _ReturnSignal(Exception):
    """Raised when a statement assigns to ``return``: exits the procedure."""


class Machine:
    """Executes compiled programs against an :class:`ExecContext`."""

    def __init__(self, program: CompiledProgram, ctx: ExecContext):
        self.program = program
        self.ctx = ctx

    # ------------------------------------------------------------------ #
    # predicate resolution
    # ------------------------------------------------------------------ #

    def resolve_relation(
        self,
        ref: PredRef,
        name: Term,
        frame: Frame,
        for_update: bool = False,
        dynamic_dispatch: bool = False,
    ) -> Relation:
        """Resolve a predicate reference (with a ground name) to a Relation."""
        info = ref.info
        if info is not None:
            klass = info.klass
            if klass is PredClass.LOCAL:
                relation = frame.locals.get((info.skeleton[0], ref.arity))
                if relation is None:
                    raise GlueRuntimeError(f"no local relation {name}/{ref.arity}")
                return relation
            if klass is PredClass.SPECIAL:
                if info.skeleton[0] == "in":
                    if frame.in_rel is None:
                        raise GlueRuntimeError("'in' used outside a procedure")
                    return frame.in_rel
                if frame.return_rel is None:
                    raise GlueRuntimeError("'return' used outside a procedure")
                return frame.return_rel
            if klass is PredClass.NAIL:
                if for_update:
                    raise GlueRuntimeError(f"cannot update NAIL! predicate {name}")
                return self._materialize_nail(name, ref.arity)
            # EDB (declared or implicit).
            return self.ctx.db.relation(name, ref.arity)
        # Dynamic reference: resolve the ground name at run time.
        return self._resolve_dynamic(name, ref.arity, frame, for_update, dynamic_dispatch)

    def _resolve_dynamic(
        self,
        name: Term,
        arity: int,
        frame: Frame,
        for_update: bool,
        dynamic_dispatch: bool,
    ) -> Relation:
        """The run-time predicate-class dispatch.

        With compile-time dereferencing the compiler only emits this for
        names whose candidate set was ambiguous; the DynamicStep baseline
        (experiment E8) forces the full check for every row.
        """
        skeleton = pred_skeleton(name, arity)
        if dynamic_dispatch:
            self.ctx.counters.dynamic_dispatches += 1
        if isinstance(name, Atom):
            local = frame.locals.get((name.name, arity))
            if local is not None:
                return local
        if dynamic_dispatch:
            proc = self.program.procs.get((None, skeleton[0], arity)) if skeleton[0] else None
            if proc is None and skeleton[0] is not None:
                proc = self.program.exported.get((skeleton[0], arity))
            if proc is not None:
                raise GlueRuntimeError(
                    f"dynamic call to procedure {name}/{arity} is not supported; "
                    "bind the procedure name statically"
                )
        if self.ctx.nail_engine is not None and self.ctx.nail_engine.defines(skeleton):
            if for_update:
                raise GlueRuntimeError(f"cannot update NAIL! predicate {name}")
            return self._materialize_nail(name, arity)
        return self.ctx.db.relation(name, arity)

    def _materialize_nail(self, name: Term, arity: int) -> Relation:
        engine = self.ctx.nail_engine
        if engine is None:
            raise GlueRuntimeError(
                f"subgoal {name}/{arity} is a NAIL! predicate but no engine is attached"
            )
        # A view: fully materialized when possible, demand-driven otherwise.
        return engine.view(name, arity)

    def call_predicate(self, ref: PredRef, input_rows: List[Row], frame: Frame) -> List[Row]:
        """Call a procedure/builtin/foreign once on the full input set."""
        info = ref.info
        if info is None:
            raise GlueRuntimeError(f"cannot call unresolved predicate {ref.pred}")
        name = info.skeleton[0]
        if info.klass is PredClass.BUILTIN:
            builtin = BUILTIN_PROCS[(name, info.arity)]
            return builtin.fn(self.ctx, input_rows)
        if info.klass is PredClass.FOREIGN:
            foreign = self.ctx.foreign.get((name, info.arity))
            if foreign is None:
                raise GlueRuntimeError(
                    f"foreign procedure {info.module}.{name}/{info.arity} is not registered"
                )
            return foreign.fn(self.ctx, input_rows)
        proc = self.program.procs.get((info.module, name, info.arity))
        if proc is None:
            proc = self.program.exported.get((name, info.arity))
        if proc is None:
            raise GlueRuntimeError(f"no procedure {name}/{info.arity}")
        result = self.call_proc(proc, input_rows)
        return result

    # ------------------------------------------------------------------ #
    # procedures
    # ------------------------------------------------------------------ #

    def call_proc(self, proc: CompiledProc, input_rows: List[Row]) -> List[Row]:
        """Invoke a compiled procedure on a set of input tuples."""
        with self.ctx.tracer.span(
            "proc", f"{proc.name}/{proc.arity}", module=proc.module,
            inputs=len(input_rows),
        ) as span:
            self.ctx.counters.proc_calls += 1
            frame = Frame(proc, self.ctx)
            for row in input_rows:
                if len(row) != proc.bound_arity:
                    raise GlueRuntimeError(
                        f"{proc.name}: input arity {len(row)} != bound arity {proc.bound_arity}"
                    )
            frame.in_rel.insert_new(input_rows)
            try:
                for stmt in proc.body:
                    self.exec_stmt(stmt, frame)
            except _ReturnSignal:
                pass
            rows = frame.return_rel.copy_rows()
            span.rows = len(rows)
            return rows

    def run_script(self) -> None:
        """Execute the loose top-level statements of the program."""
        frame = Frame(None, self.ctx)
        for stmt in self.program.script:
            self.exec_stmt(stmt, frame)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def exec_stmt(self, stmt, frame: Frame) -> None:
        if isinstance(stmt, CompiledRepeat):
            self._exec_repeat(stmt, frame)
            return
        assert isinstance(stmt, CompiledStmt)
        tracer = self.ctx.tracer
        with tracer.span("stmt", stmt_label(stmt) if tracer.enabled else "") as span:
            if stmt.replan is not None:
                stmt = self._replanned(stmt, frame)
            rows = self.run_plan(stmt.plan, frame)
            head_rows = list(dict.fromkeys(tuple(fn(r) for fn in stmt.head_fns) for r in rows))
            span.rows = len(head_rows)
            self._apply_head(stmt, rows, head_rows, frame)
        if stmt.is_return and head_rows:
            # "Assigning to this relation also has the effect of exiting the
            # procedure" -- but an empty body stops the statement before the
            # assignment happens, so control falls through to the next one.
            raise _ReturnSignal()

    def _replanned(self, stmt: CompiledStmt, frame: Frame) -> CompiledStmt:
        """A statement compiled without some relation's size, in the form
        its program's plan cache holds for the size buckets of this
        context's database and ``frame``'s locals (paper Section 10): the
        statement itself, or a variant compiled for the planned order."""
        replan = stmt.replan
        return self.program.plans.get(
            replan.body,
            scoped_stats(replan.scope, frame.locals, self.ctx.db.get),
            build=partial(compile_variant, stmt),
            counters=self.ctx.counters,
            call_fixedness=replan.call_fixedness,
            call_bound_arity=replan.call_bound_arity,
        ).built

    def _apply_head(self, stmt: CompiledStmt, rows, head_rows, frame: Frame) -> None:
        if stmt.head_name_fn is None:
            target = self.resolve_relation(stmt.head_ref, stmt.head_ref.pred, frame,
                                           for_update=True)
            self._apply_op(stmt, target, head_rows)
            return
        # Dynamic head: group result rows by instantiated relation name.
        by_name: Dict[Term, List[Row]] = {}
        for row in rows:
            name = stmt.head_name_fn(row)
            head_row = tuple(fn(row) for fn in stmt.head_fns)
            by_name.setdefault(name, []).append(head_row)
        for name, target_rows in by_name.items():
            target = self.resolve_relation(stmt.head_ref, name, frame, for_update=True)
            self._apply_op(stmt, target, list(dict.fromkeys(target_rows)))

    def _apply_op(self, stmt: CompiledStmt, target: Relation, head_rows: List[Row]) -> None:
        op = stmt.op
        if op == ":=":
            target.replace(head_rows)
        elif op == "+=":
            target.insert_many(head_rows)
        elif op == "-=":
            target.delete_many(head_rows)
        elif op == "modify":
            # Update by key (paper Section 3.1): remove every existing tuple
            # sharing a key with a new tuple, then insert the new tuples.
            # Incoming rows are deduplicated by key first -- the *last* row
            # in result order wins -- so a body producing several tuples for
            # one key leaves exactly one (see docs/GLUE_MANUAL.md).
            key_positions = stmt.key_positions
            if not key_positions:
                # No key columns: every tuple shares the empty key, so any
                # result replaces the whole relation.
                if head_rows:
                    target.replace(head_rows[-1:])
                return
            by_key: Dict[Row, Row] = {}
            for row in head_rows:
                by_key[tuple(row[p] for p in key_positions)] = row
            if not by_key:
                return
            # Victims come from the key index, not a full relation scan.
            victims = target.probe_buckets(key_positions, by_key.keys()) if len(target) else []
            target.delete_many(victims)
            target.insert_many(by_key.values())
        else:  # pragma: no cover - parser prevents this
            raise GlueRuntimeError(f"unknown assignment operator {op}")

    def _exec_repeat(self, stmt: CompiledRepeat, frame: Frame) -> None:
        with self.ctx.tracer.span("repeat", "repeat/until") as span:
            iterations = 0
            while True:
                for inner in stmt.body:
                    self.exec_stmt(inner, frame)
                iterations += 1
                if self._eval_until(stmt.until_alts, frame):
                    span.attrs["iterations"] = iterations
                    return
                if iterations >= self.ctx.max_loop_iterations:
                    raise GlueRuntimeError(
                        f"repeat loop exceeded {self.ctx.max_loop_iterations} iterations"
                    )

    def _eval_until(self, alternatives: List[Plan], frame: Frame) -> bool:
        """A condition holds when its conjunction yields a non-empty set;
        alternatives short-circuit left to right."""
        for plan in alternatives:
            if self.run_plan(plan, frame):
                return True
        return False

    # ------------------------------------------------------------------ #
    # plan execution
    # ------------------------------------------------------------------ #
    #
    # Per-step instrumentation (EXPLAIN ANALYZE): the same steps run
    # whether or not anyone traces; a traced run also meters each step.
    # Lazy steps stay lazy, so each one's output stream is wrapped in a
    # metering iterator that accumulates rows-out, wall time and counter
    # deltas *inclusive* of its upstream chain.  Since a pipeline segment
    # is linear, a step's own (exclusive) cost is its accumulator minus
    # its upstream step's.  Barriers are measured directly; the segment
    # restarts after each barrier and after each stored relation.

    def run_plan(
        self, plan: Plan, frame: Frame, seed: Optional[List[Row]] = None
    ) -> List[Row]:
        """Run ``plan`` over ``seed`` -- one empty row for a statement body,
        the incoming rows for a disjunction alternative -- and return its
        rows, deduplicated.

        Steps stream into each other; a barrier is a pipeline break: the
        supplementary relation so far is stored and deduplicated before
        the barrier runs, and execution stops when it is empty.  The
        ``materialized`` oracle stores and deduplicates after every step
        instead, and ``keep_duplicates`` skips the deduplication at a break.
        """
        counters = self.ctx.counters
        oracles = self.ctx.oracles
        snap = counters.as_tuple if self.ctx.tracer.enabled else None
        stream = [()] if seed is None else seed
        # (step, meter, upstream meter of its segment), filled when traced
        meters: List[Tuple[object, _StepMeter, Optional[_StepMeter]]] = []
        base: Optional[_StepMeter] = None
        for step in plan:
            meter = _StepMeter(snap) if snap is not None else None
            if step.is_barrier:
                if not oracles.materialized:  # else stored after the last step
                    stream = self._store(stream, dedup=not oracles.keep_duplicates)
                    counters.pipeline_breaks += 1
                    if meter is not None:
                        meter.break_rows = len(stream)
                if meter is not None:
                    meters.append((step, meter, None))
                if not stream:
                    # "Execution of an assignment statement stops whenever
                    # a supplementary relation is empty."
                    break
                if meter is not None:
                    meter.start()
                stream = step.materialize_apply(stream, self, frame)
                if meter is not None:
                    meter.stop(len(stream))
                base = None  # the next lazy step starts a fresh segment
            else:
                stream = step.iterate(stream, self, frame)
                if meter is not None:
                    meters.append((step, meter, base))
                    stream = _metered(stream, meter)
                    base = meter
            if oracles.materialized:
                stream = self._store(stream, dedup=True)
                base = None
                if not stream:
                    break
        else:
            if oracles.materialized:
                pass  # the last step stored its relation
            elif seed is None:
                stream = self._store(stream, dedup=True)
            else:
                # A disjunction alternative: its rows become the union's
                # output, which the statement stores downstream.
                stream = self.dedup(list(stream))
        for step, meter, base in meters:
            self._emit_step(step, meter, base)
        return stream

    def _store(self, rows: Iterable[Row], dedup: bool) -> List[Row]:
        """Materialize a supplementary relation, charged as one, and
        deduplicate it if ``dedup``."""
        rows = list(rows)
        self.ctx.counters.materializations += 1
        self.ctx.counters.materialized_tuples += len(rows)
        return self.dedup(rows) if dedup else rows

    def dedup(self, rows: List[Row]) -> List[Row]:
        """``rows`` without duplicates, first occurrences in order; the
        removed rows are charged to ``dedup_removed``."""
        before = len(rows)
        rows = list(dict.fromkeys(rows))
        self.ctx.counters.dedup_removed += before - len(rows)
        return rows

    def _emit_step(self, step, meter: "_StepMeter", base: Optional["_StepMeter"] = None) -> None:
        """The ``step`` event (after a ``pipeline_break`` one at a barrier)
        of one metered step; ``base`` is the upstream meter to subtract."""
        tracer = self.ctx.tracer
        label = step_label(step)
        if meter.break_rows is not None:
            tracer.event("pipeline_break", label, rows=meter.break_rows)
        dur = meter.dur
        before = _NO_DELTA
        if base is not None:
            dur = max(dur - base.dur, 0.0)
            before = base.delta
        tracer.event(
            "step", label, rows=meter.rows,
            counters=nonzero_delta(before, meter.delta), dur_s=dur,
        )


_NO_DELTA = (0,) * len(COUNTER_FIELDS)


class _StepMeter:
    """Accumulates one plan step's rows-out, wall time and counter deltas.

    For lazy (non-barrier) steps the numbers are *inclusive* of the
    upstream chain; :meth:`Machine._emit_step` subtracts the upstream
    meter to get the step's own cost.  ``break_rows`` is set on barrier
    meters to the supplementary-relation size at the break.
    """

    __slots__ = ("snap", "rows", "dur", "delta", "break_rows", "_c0", "_t0")

    def __init__(self, snap, break_rows: Optional[int] = None):
        self.snap = snap
        self.rows = 0
        self.dur = 0.0
        self.delta = [0] * len(COUNTER_FIELDS)
        self.break_rows = break_rows

    def start(self) -> None:
        self._c0 = self.snap()
        self._t0 = perf_counter()

    def stop(self, rows: int) -> None:
        """Charge the work since :meth:`start`, which produced ``rows``."""
        self.dur += perf_counter() - self._t0
        after = self.snap()
        before = self._c0
        delta = self.delta
        for i in range(len(delta)):
            delta[i] += after[i] - before[i]
        self.rows += rows


def _metered(inner, meter: _StepMeter) -> Iterator[Row]:
    """Wrap a step's output stream, charging each pull to ``meter``."""
    while True:
        meter.start()
        try:
            row = next(inner)
        except StopIteration:
            meter.stop(0)
            return
        meter.stop(1)
        yield row
