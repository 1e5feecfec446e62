"""The Glue-Nail system facade.

Typical use::

    from repro import GlueNailSystem

    system = GlueNailSystem()
    system.load('''
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y) & edge(Y, Z).
    ''')
    system.facts("edge", [(1, 2), (2, 3)])
    system.query("path(1, Y)?")        # -> [(Num(1), Num(2)), (Num(1), Num(3))]

The facade owns the EDB, the compiled program, the virtual machine and the
NAIL! engine, and keeps them consistent: loading more source invalidates
the compilation; EDB changes invalidate derived relations (handled by the
engine's version check).
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.analysis.scope import pred_skeleton
from repro.core.result import QueryResult
from repro.errors import GlueNailError, GlueRuntimeError
from repro.lang.ast import EdbDecl, Program
from repro.lang.parser import parse_program, parse_query
from repro.nail.engine import NailEngine, magic_query
from repro.obs.query_stats import QueryStats
from repro.obs.tracer import CollectingSink, TraceSink, Tracer
from repro.oracles import PRODUCT, Oracles
from repro.storage.database import Database
from repro.storage.persist import load_database, save_database
from repro.storage.relation import matching_rows
from repro.storage.stats import CostCounters, counter_delta
from repro.terms.matching import match_tuple
from repro.terms.term import Term, is_ground, mk
from repro.vm.compiler import ProgramCompiler
from repro.vm.machine import ExecContext, ForeignProc, Machine
from repro.vm.plan import CompiledProc, CompiledProgram

Row = Tuple[Term, ...]


class GlueNailSystem:
    """A complete Glue-Nail instance: EDB + compiler + VM + NAIL! engine."""

    # One configuration for the whole program, handed to the compiler, the
    # VM and the NAIL! engine alike; repro.baselines.reference overrides it
    # to run the differential baselines.
    _oracles: Oracles = PRODUCT

    def __init__(
        self,
        db: Optional[Database] = None,
        strict: bool = False,
        out=None,
        inp=None,
        max_loop_iterations: int = 1_000_000,
        trace: Union[bool, TraceSink] = False,
    ):
        self.db = db if db is not None else Database()
        self.strict = strict
        self.out = out
        self.inp = inp
        self.max_loop_iterations = max_loop_iterations

        self._programs: List[Program] = []
        self._foreign: List[ForeignProc] = []
        self._compiled: Optional[CompiledProgram] = None
        self._machine: Optional[Machine] = None
        self._ctx: Optional[ExecContext] = None
        self._engine: Optional[NailEngine] = None

        self._collector: Optional[CollectingSink] = None
        self._collector_local = False
        self._subscriptions = None  # lazy SubscriptionManager (repro.sub)
        self.last_result: Optional[QueryResult] = None
        # Durable store (see repro.txn); attached by GlueNailSystem.open().
        self.store = None
        self._owns_store = False  # a server's sessions share its store
        if trace:
            self.enable_tracing(trace if isinstance(trace, TraceSink) else None)

    @classmethod
    def open(cls, directory: str, sync: bool = True, **kwargs) -> "GlueNailSystem":
        """Open (or create) a durable database directory, with recovery.

        The directory holds a checkpoint dump plus a write-ahead log (see
        :mod:`repro.txn`); opening replays the committed WAL suffix over
        the last checkpoint, so the system always starts from exactly the
        committed state.  EDB mutations made through the returned system
        are autocommitted to the WAL (a :meth:`facts` call as one batch);
        :meth:`begin`/:meth:`commit`/:meth:`rollback` group them, and
        :meth:`checkpoint` compacts.
        """
        from repro.txn.store import DurableStore

        db = kwargs.pop("db", None)
        store = DurableStore(directory, db=db, sync=sync)
        system = cls(db=store.db, **kwargs)
        system.store = store
        system._owns_store = True
        return system

    # ------------------------------------------------------------------ #
    # loading and compilation
    # ------------------------------------------------------------------ #

    def load(self, source: str) -> "GlueNailSystem":
        """Parse and stage Glue-Nail source, declaring its ``edb``
        relations (one implicit transaction); returns self for chaining.
        Compiling declares nothing, so only loading touches the catalog."""
        program = parse_program(source)
        with self.db.atomically():
            for item in chain(*(module.items for module in program.modules), program.items):
                if isinstance(item, EdbDecl):
                    self.db.declare(item.name, item.arity)
        self._programs.append(program)
        self._invalidate()
        return self

    def load_file(self, path: str) -> "GlueNailSystem":
        with open(path, "r", encoding="utf-8") as handle:
            return self.load(handle.read())

    def register_foreign(
        self,
        module: str,
        name: str,
        arity: int,
        bound_arity: int,
        fn: Callable[[ExecContext, List[Row]], List[Row]],
        fixed: bool = True,
    ) -> "GlueNailSystem":
        """Register a Python function as a Glue procedure (the foreign
        interface of paper Section 10).  Must happen before compilation so
        import resolution sees the signature."""
        self._foreign.append(ForeignProc(module=module, name=name, arity=arity,
                                         bound_arity=bound_arity, fn=fn, fixed=fixed))
        self._invalidate()
        return self

    def _invalidate(self) -> None:
        self._compiled = None
        self._machine = None
        self._ctx = None
        self._engine = None

    @property
    def program(self) -> Program:
        modules: List = []
        items: List = []
        for program in self._programs:
            modules.extend(program.modules)
            items.extend(program.items)
        return Program(modules=tuple(modules), items=tuple(items))

    def compile(self) -> CompiledProgram:
        """(Re)compile everything loaded; idempotent until the next load."""
        if self._compiled is not None:
            return self._compiled
        db = self.db

        def stats_source(pred, arity):
            # Live EDB statistics for the planner; resolved at plan time so
            # statements compiled before their relations loaded re-plan by
            # current cardinalities.
            return db.get(pred, arity)

        compiler = ProgramCompiler(
            strict=self.strict,
            foreign_sigs=self._foreign,
            oracles=self._oracles,
            stats_source=stats_source,
            counters=db.counters,
        )
        compiled = compiler.compile_program(self.program)
        ctx = ExecContext(
            db=self.db,
            out=self.out,
            inp=self.inp,
            max_loop_iterations=self.max_loop_iterations,
            oracles=self._oracles,
        )
        for proc in self._foreign:
            ctx.register_foreign(proc)
        # Safety is checked lazily per stratum: rules that need demand
        # bindings (magic evaluation) are legal until someone asks for
        # their full extension.
        engine = NailEngine(
            self.db, compiled.rules, check_safety=False, oracles=self._oracles
        )
        ctx.nail_engine = engine
        self._compiled = compiled
        self._ctx = ctx
        self._engine = engine
        self._machine = Machine(compiled, ctx)
        # Register the program's ``watch`` declarations as active rules;
        # a recompile replaces the previous set (and clears it when the
        # new program has none).  Only the system hosting the subscription
        # manager installs them: a server session shares its server's
        # manager, whose own system already runs the base program's watches.
        manager = self._subscriptions
        if manager is None or manager.system is self:
            if compiled.watches or (manager is not None and manager._watch_sub_ids):
                self.subscriptions.set_watch_rules(compiled.watches)
        return compiled

    @property
    def machine(self) -> Machine:
        self.compile()
        return self._machine

    @property
    def engine(self) -> NailEngine:
        self.compile()
        return self._engine

    @property
    def ctx(self) -> ExecContext:
        self.compile()
        return self._ctx

    @property
    def counters(self) -> CostCounters:
        return self.db.counters

    def reset_counters(self) -> None:
        self.db.counters.reset()

    def idb_cache_info(self) -> dict:
        """The engine's incremental-maintenance state, for observability.

        ``strata`` lists, per stratum, whether a cached extension is
        currently held (``computed``), its invalidation ``epoch`` (bumped
        whenever a supporting relation changed), and the size of its
        transitive EDB ``support`` set; ``demand_entries`` counts live
        demand-cache answers.  The ``idb_*`` fields of
        :class:`~repro.storage.stats.CostCounters` say how those caches
        have been doing (hits, delta repairs, rounds, invalidations).
        """
        engine = self.engine
        return {
            "strata": [
                {
                    "index": stratum.index,
                    "computed": engine._stratum_computed[stratum.index],
                    "epoch": engine._stratum_epoch[stratum.index],
                    "support": len(engine.supports[stratum.index].transitive),
                    "universal": engine.supports[stratum.index].universal,
                }
                for stratum in engine.strata
            ],
            "demand_entries": len(engine._demand_cache),
        }

    # ------------------------------------------------------------------ #
    # transactions and durability (see repro.txn)
    # ------------------------------------------------------------------ #

    @property
    def txn(self):
        """The transaction manager, or None until transactions are enabled."""
        return self.db.journal

    def enable_transactions(self):
        """Attach the database's transaction manager (see
        :meth:`Database.transactions`); systems created by :meth:`open`
        already have a durable one."""
        return self.db.transactions()

    def begin(self) -> None:
        """Start a transaction (enabling the subsystem on first use)."""
        self.enable_transactions().begin()

    def commit(self) -> None:
        manager = self.txn
        if manager is None:
            raise GlueRuntimeError("no transaction is active")
        manager.commit()

    def rollback(self) -> None:
        manager = self.txn
        if manager is None:
            raise GlueRuntimeError("no transaction is active")
        manager.rollback()

    def transaction(self):
        """``with system.transaction():`` -- commit on success, else roll back."""
        return self.enable_transactions().transaction()

    # ------------------------------------------------------------------ #
    # MVCC snapshot reads (see repro.mvcc and docs/PERFORMANCE.md)
    # ------------------------------------------------------------------ #

    def enable_snapshots(self, store=None):
        """Give this system an MVCC snapshot read path; returns the store.

        Wraps ``self.db`` in a :class:`~repro.mvcc.router.SnapshotRouter` (a
        ``Database``-shaped facade), so every layer that reaches storage
        through the system's database handle -- the NAIL! engine, the Glue
        VM, the optimizer, the columnar kernels -- evaluates against a
        pinned immutable snapshot whenever one is active on the calling
        thread.  Pass ``store`` to share one :class:`VersionStore` across
        systems over the same database (the query server does this so all
        sessions pin the same published versions).  Idempotent.
        """
        from repro.mvcc.router import SnapshotRouter

        if isinstance(self.db, SnapshotRouter):
            return self.db.store
        router = SnapshotRouter(self.db, store=store)
        self.db = router
        # Compiled state closed over the bare database handle; recompile
        # lazily so evaluation resolves rows through the router.
        self._invalidate()
        return router.store

    def snapshot(self):
        """Pin the latest published snapshot (enabling snapshots on first
        use): ``with system.snapshot() as snap: system.query(...)`` runs
        the block's queries against one immutable version, regardless of
        concurrent writers."""
        store = self.enable_snapshots()  # swaps in the routing ``self.db``
        return self.db.pinned(store.pin())

    # ------------------------------------------------------------------ #
    # subscriptions (see repro.sub and docs/SUBSCRIPTIONS.md)
    # ------------------------------------------------------------------ #

    @property
    def subscriptions(self):
        """The push-subscription manager (created on first use).

        Creating it enables transactions: delivery is transaction-
        consistent, so committed batches are the unit of notification.
        """
        if self._subscriptions is None:
            from repro.sub.manager import SubscriptionManager

            self._subscriptions = SubscriptionManager(self)
        return self._subscriptions

    def subscribe(self, name, arity: int, **kwargs):
        """Subscribe to committed deltas of ``name/arity``.

        Convenience for ``system.subscriptions.subscribe(...)``; see
        :meth:`repro.sub.manager.SubscriptionManager.subscribe`.
        """
        return self.subscriptions.subscribe(name, arity, **kwargs)

    def checkpoint(self) -> int:
        """Compact the durable store's WAL into its checkpoint dump."""
        if self.store is None:
            raise GlueRuntimeError(
                "no durable store attached; open one with GlueNailSystem.open(directory)"
            )
        return self.store.checkpoint()

    def close(self) -> None:
        """Release compiled state and the engine's derived relations (a
        later call recompiles), the subscription manager (if hosted here)
        and the durable store (if owned); idempotent."""
        if self._engine is not None:
            self._engine.close()
        if self._subscriptions is not None and self._subscriptions.system is self:
            self._subscriptions.close()
        self._subscriptions = None
        self._invalidate()
        self.last_result = None
        if self.store is not None and self._owns_store:
            self.store.close()
            self.store = None

    # ------------------------------------------------------------------ #
    # tracing
    # ------------------------------------------------------------------ #

    @property
    def tracer(self) -> Tracer:
        """The database's tracing hub (shared by VM, engine and storage)."""
        return self.db.tracer

    def enable_tracing(
        self, sink: Optional[TraceSink] = None, local: bool = False
    ) -> CollectingSink:
        """Turn on tracing; every subsequent entry point carries ``.trace``.

        A persistent :class:`CollectingSink` backs the per-query trace
        slices; an extra ``sink`` (e.g. :class:`JsonLinesSink`) is fanned
        out alongside it.  Returns the collector.

        ``local=True`` installs the collector as a *thread-local* sink: it
        sees only events produced by the calling thread.  The query server
        uses this so each session's ``.trace`` stays its own even though
        every session shares the database's tracer hub.
        """
        if self._collector is None:
            self._collector = CollectingSink()
            self._collector_local = local
            if local:
                self.tracer.add_local_sink(self._collector)
            else:
                self.tracer.add_sink(self._collector)
        if sink is not None:
            self.tracer.add_sink(sink)
        return self._collector

    def disable_tracing(self) -> None:
        """Remove the collector installed by :meth:`enable_tracing`.

        Sinks added explicitly (``tracer.add_sink``) stay installed.
        """
        if self._collector is not None:
            if self._collector_local:
                self.tracer.remove_local_sink(self._collector)
            else:
                self.tracer.remove_sink(self._collector)
            self._collector = None
            self._collector_local = False

    def _instrumented_entry(self, kind: str, label: str, runner) -> QueryResult:
        """Run one entry point, diffing counters and slicing the trace.

        ``runner`` returns ``(rows, resolution, plan_fn)``; the resulting
        :class:`QueryResult` carries rows plus :class:`QueryStats`, the
        query's own trace-event slice, and the lazily rendered plan.
        """
        collector = self._collector
        start = len(collector.events) if collector is not None else 0
        before = self.db.counters.as_tuple()
        if getattr(self.db, "snapshot_active", False):
            # Charged after ``before`` so the read shows up in this query's
            # counter delta (and hence EXPLAIN ANALYZE).
            self.db.counters.snapshot_reads += 1
        t0 = perf_counter()
        with self.tracer.span(kind, label) as span:
            rows, resolution, plan_fn = runner()
            span.rows = len(rows)
            span.attrs["resolution"] = resolution
        elapsed = perf_counter() - t0
        stats = QueryStats(
            query=label,
            resolution=resolution,
            rows=len(rows),
            elapsed_s=elapsed,
            counters=counter_delta(before, self.db.counters.as_tuple()),
        )
        trace = collector.events[start:] if collector is not None else []
        result = QueryResult(
            rows, stats=stats, resolution=resolution, trace=trace, plan_fn=plan_fn
        )
        self.last_result = result
        return result

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def procedure(
        self, name: str, module: Optional[str] = None, arity: Optional[int] = None
    ) -> CompiledProc:
        """The compiled procedure :meth:`call` would run for these arguments."""
        self.compile()
        if arity is None:
            # Only procedures visible under the requested module count as
            # arity candidates; without the filter an unrelated same-name
            # procedure elsewhere made the arity "ambiguous".
            candidates = sorted(
                {
                    key[2]
                    for key in self._compiled.procs
                    if key[1] == name and (module is None or key[0] == module)
                }
            )
            if not candidates:
                where = f" in module {module}" if module is not None else ""
                raise GlueRuntimeError(f"no procedure named {name}{where}")
            if len(candidates) > 1:
                raise GlueRuntimeError(
                    f"procedure {name} has several arities {candidates}; pass arity="
                )
            arity = candidates[0]
        return self._compiled.find_proc(name, arity, module=module)

    def call(
        self,
        name: str,
        inputs: Sequence[Sequence[object]] = ((),),
        module: Optional[str] = None,
        arity: Optional[int] = None,
    ) -> QueryResult:
        """Call a Glue procedure once on a set of input tuples.

        ``inputs`` is a sequence of tuples matching the procedure's bound
        arity; plain Python values are lifted to terms.  Returns the
        procedure's return relation as a :class:`QueryResult`.
        """
        proc = self.procedure(name, module, arity)
        lifted = [tuple(mk(v) for v in row) for row in inputs]
        label = f"{proc.module + '.' if proc.module else ''}{name}/{proc.arity}"

        def runner():
            return self._call_proc(proc, lifted), "procedure", self._proc_plan(proc)

        return self._instrumented_entry("call", label, runner)

    def _call_proc(self, proc: CompiledProc, inputs: List[Row]) -> List[Row]:
        """Run a procedure; one that writes is one implicit transaction
        (see :meth:`Database.atomically`), one that does not never touches
        the transaction manager."""
        with self.db.atomically() if proc.writes else nullcontext():
            return self._machine.call_proc(proc, inputs)

    def run_script(self) -> None:
        """Execute the loose top-level statements of the loaded program, as
        one implicit transaction (see :meth:`Database.atomically`)."""
        self.compile()
        with self.db.atomically():
            self._machine.run_script()

    def query(self, text: str, subgoal=None) -> QueryResult:
        """Answer an ad-hoc query ``p(args)?`` against NAIL!, the EDB, or a
        Glue procedure, in that resolution order.  ``subgoal`` is ``text``
        already parsed, for callers that had to look at it first."""
        self.compile()
        if subgoal is None:
            subgoal = parse_query(text)

        def runner():
            return self._resolve_query(subgoal)

        return self._instrumented_entry("query", text.strip(), runner)

    def _resolve_query(self, subgoal):
        """The resolution chain: NAIL! -> EDB -> exported procedure -> [].

        Returns ``(rows, resolution, plan_fn)``.
        """
        pred, args = subgoal.pred, subgoal.args
        if not is_ground(pred):
            raise GlueNailError("the query predicate itself must be ground")
        skeleton = pred_skeleton(pred, len(args))
        if self._engine.defines(skeleton):
            rows = self._engine.query(pred, args)
            return rows, "nail", self._nail_plan(skeleton)
        relation = self.db.get(pred, len(args))
        if relation is not None:
            rows = matching_rows(relation, args)
            return rows, "edb", lambda: f"scan {pred}/{len(args)} (EDB relation)"
        # Fall back to a procedure call with the bound prefix as input.
        proc = self._fallback_proc(subgoal)
        if proc is None:
            return [], "none", None
        bound = args[: proc.bound_arity]
        if not all(is_ground(a) for a in bound):
            raise GlueNailError(
                f"procedure query {skeleton[0]} needs its first "
                f"{proc.bound_arity} argument(s) bound"
            )
        rows = self._call_proc(proc, [tuple(bound)])
        filtered = [row for row in rows if match_tuple(args, row) is not None]
        return filtered, "procedure", self._proc_plan(proc)

    def _fallback_proc(self, subgoal) -> Optional[CompiledProc]:
        """The procedure a query falls back to when neither NAIL! nor the
        EDB answers it: the exported one of its name and arity, else the
        only one."""
        arity = len(subgoal.args)
        name = pred_skeleton(subgoal.pred, arity)[0]
        matches = [p for key, p in self._compiled.procs.items() if key[1:] == (name, arity)]
        return self._compiled.exported.get((name, arity)) or (
            matches[0] if len(matches) == 1 else None
        )

    def query_writes(self, subgoal) -> bool:
        """Could answering this parsed query write?  True exactly when the
        procedure it would fall back to writes -- a property of the
        compiled program, not of the catalog."""
        self.compile()
        proc = self._fallback_proc(subgoal)
        return proc is not None and proc.writes

    def _nail_plan(self, skeleton) -> Callable[[], str]:
        """The NAIL! 'plan' renderer: the defining rules plus their stratum.
        It holds the engine, not the system, so a result kept in
        ``last_result`` forms no reference cycle with the system."""
        engine, fixpoint = self._engine, self._oracles.fixpoint

        def render() -> str:
            from repro.lang.pretty import pretty_rule

            lines = []
            index = engine._stratum_of.get(skeleton)
            head = f"{skeleton[0]}/{skeleton[-1]}"
            if index is not None:
                lines.append(f"NAIL! predicate {head} (stratum {index}, "
                             f"{fixpoint} evaluation)")
            for info in engine.rule_infos:
                if info.head_skeleton == skeleton:
                    lines.append("  " + pretty_rule(info.rule).strip())
                    plan = engine.rule_plan(info)
                    if plan is not None:
                        lines.extend("    " + line for line in plan.describe())
            return "\n".join(lines)

        return render

    @staticmethod
    def _proc_plan(proc: CompiledProc) -> Callable[[], str]:
        def render() -> str:
            from repro.vm.explain import explain_proc

            return explain_proc(proc)

        return render

    def query_magic(self, text: str, subgoal=None) -> QueryResult:
        """Answer a NAIL! query demand-driven (magic sets).

        Queries outside the magic fragment (aggregates, negated IDB
        literals, compound-named predicates on the demand path) fall back
        to ordinary evaluation transparently.  ``subgoal`` as for
        :meth:`query`.
        """
        from repro.nail.magic import MagicTransformError

        self.compile()
        if subgoal is None:
            subgoal = parse_query(text)

        def runner():
            try:
                answers = magic_query(
                    self.db, self._compiled.rules, subgoal.pred, subgoal.args,
                    oracles=self._oracles,
                )
            except MagicTransformError:
                return self._resolve_query(subgoal)
            skeleton = pred_skeleton(subgoal.pred, len(subgoal.args))
            return answers, "magic", self._nail_plan(skeleton)

        return self._instrumented_entry("query_magic", text.strip(), runner)

    def explain_analyze(self, text: str, magic: bool = False) -> str:
        """Run a query with tracing forced on and render the full report:
        static plan, per-step actual rows, per-unit counter deltas and
        wall-clock timings (the EXPLAIN ANALYZE of paper-cost accounting).
        """
        from repro.obs.report import render_explain_analyze

        sink = CollectingSink()
        self.tracer.add_sink(sink)
        try:
            result = self.query_magic(text) if magic else self.query(text)
        finally:
            self.tracer.remove_sink(sink)
        return render_explain_analyze(text, result.stats, sink.events,
                                      plan=result.plan)

    # ------------------------------------------------------------------ #
    # EDB convenience
    # ------------------------------------------------------------------ #

    def fact(self, name, *values) -> bool:
        return self.db.fact(name, *values)

    def facts(self, name, rows) -> int:
        """Insert many facts as one batch (see :meth:`Database.facts`)."""
        return self.db.facts(name, rows)

    def rows(self, name, arity: int) -> QueryResult:
        """All rows of ``name/arity`` in canonical (sorted) order.

        One accessor for both worlds: a NAIL!-defined predicate is
        materialized (forcing evaluation); otherwise the EDB relation is
        read; unknown names give an empty result.  ``.resolution`` on the
        returned :class:`QueryResult` says which path answered.
        """
        self.compile()
        name_term = name if isinstance(name, Term) else mk(name)
        skeleton = pred_skeleton(name_term, arity)
        label = f"{name_term}/{arity}"

        def runner():
            if self._engine.defines(skeleton):
                out = self._engine.materialize(name_term, arity).sorted_rows()
                return out, "nail", self._nail_plan(skeleton)
            relation = self.db.get(name_term, arity)
            if relation is None:
                return [], "none", None
            return (
                relation.sorted_rows(),
                "edb",
                lambda: f"scan {name_term}/{arity} (EDB relation)",
            )

        return self._instrumented_entry("rows", label, runner)

    def save_edb(self, path: str) -> int:
        return save_database(self.db, path)

    def load_edb(self, path: str) -> "GlueNailSystem":
        load_database(path, self.db)
        return self

    def save_facts_dir(self, directory: str) -> int:
        """Write the EDB as a directory of per-relation .facts TSV files."""
        from repro.storage.tsvdir import save_tsv_dir

        return save_tsv_dir(self.db, directory)

    def load_facts_dir(self, directory: str) -> "GlueNailSystem":
        from repro.storage.tsvdir import load_tsv_dir

        load_tsv_dir(directory, self.db)
        return self
