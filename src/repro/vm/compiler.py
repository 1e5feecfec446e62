"""The Glue compiler: AST to virtual-machine plans.

Follows the paper's compile-time-first philosophy (Section 9): predicate
classes are resolved statically, binding-time analysis fixes the column
layout of every supplementary relation, fixedness analysis marks the
subgoals that anchor evaluation order, and the optimizer reorders the
remaining subgoals.  NAIL! rules pass through for the deductive engine;
their heads are declared so Glue code can reference them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.bindings import (
    BindingError,
    analyze_bindings,
    expr_has_agg,
    subgoal_vars,
    term_vars,
    terms_vars,
)
from repro.analysis.fixedness import is_fixed_subgoal, is_updating_subgoal
from repro.analysis.scope import PredClass, PredInfo, Scope, ScopeError, pred_skeleton
from repro.errors import CompileError
from repro.glue.builtins import BUILTIN_PROCS
from repro.lang.ast import (
    AggCall,
    AssignStmt,
    CompareSubgoal,
    EdbDecl,
    EmptyCond,
    GroupBySubgoal,
    ModuleDecl,
    PredSubgoal,
    ProcDecl,
    Program,
    RepeatStmt,
    RuleDecl,
    UnchangedCond,
    UnionSubgoal,
    UpdateSubgoal,
    WatchDecl,
    walk_statements,
)
from repro.opt.passes import DEFAULT_COST_PIPELINE, optimize as plan_body
from repro.opt.literal import classify_join_columns
from repro.opt.plan import Plan as OptPlan
from repro.oracles import PRODUCT, Oracles
from repro.storage.stats import RelationSnapshot
from repro.terms.term import Atom, Term, Var, is_ground, variables
from repro.vm.exprs import compile_expr, compile_pattern, compile_term_code
from repro.vm.plan import (
    AggStep,
    BindStep,
    CallStep,
    CompareStep,
    CompiledProc,
    CompiledProgram,
    CompiledRepeat,
    CompiledStmt,
    DynamicStep,
    EmptyStep,
    GroupByStep,
    NegScanStep,
    PredRef,
    Replan,
    ScanStep,
    Step,
    TruthStep,
    UnchangedStep,
    UnionStep,
    UpdateStep,
)

if TYPE_CHECKING:
    from repro.vm.machine import ForeignProc

_RELOP_FLIP = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


class _ColumnState:
    """Mutable compile state for one statement body."""

    __slots__ = ("columns", "group_cols")

    def __init__(self, columns: Optional[List[str]] = None,
                 group_cols: Optional[List[str]] = None) -> None:
        self.columns = [] if columns is None else columns
        self.group_cols = [] if group_cols is None else group_cols

    @property
    def colindex(self) -> Dict[str, int]:
        return {name: i for i, name in enumerate(self.columns)}

    def add(self, names: Sequence[str]) -> None:
        for name in names:
            if name not in self.columns:
                self.columns.append(name)


def _mark_per_group_aggregates(
    plan: Sequence[Step], body: Sequence[object], head_reads: Set[str]
) -> None:
    """Decide, per aggregate, whether its output may collapse to one row
    per group (:attr:`AggStep.per_group`).

    Walks the plan backwards, accumulating every variable read after each
    step (``plan[i]`` compiles ``body[i]``).  An aggregate collapses when
    no later subgoal aggregates -- a later aggregator counts the
    multiplicity of every column -- and every variable read after it that
    was bound at or before it is a group column or its own bound variable.
    """
    reads = set(head_reads)
    later_agg = False
    for step, subgoal in zip(reversed(plan), reversed(body)):
        if isinstance(step, AggStep):
            cols = step.columns_out
            allowed = {cols[p] for p in step.group_positions}
            if step.binds:
                allowed.add(cols[-1])
            step.per_group = not later_agg and (reads & set(cols)) <= allowed
            later_agg = True
        reads |= subgoal_vars(subgoal)


def _sizable_locals(decl: ProcDecl) -> Set[Tuple[str, int]]:
    """The procedure's locals whose every write is a procedure-level
    ``:=`` with a static head -- the ones a compile-time estimate of the
    assigning statement describes until the next such assignment.

    ``+=``, ``-=``, ``+=[K]``, ``++``/``--`` subgoals and any write inside
    a ``repeat`` disqualify the local; a HiLog head (or update) whose name
    is a variable disqualifies every local of its arity.
    """
    unsizable: Set[Tuple[str, int]] = set()
    dynamic_arities: Set[int] = set()

    def written(pred, arity: int, sizable: bool) -> None:
        if isinstance(pred, Var):
            dynamic_arities.add(arity)
        elif isinstance(pred, Atom) and not sizable:
            unsizable.add((pred.name, arity))

    for stmt, top in walk_statements(decl.body):
        if isinstance(stmt, RepeatStmt):
            subgoals = [s for alt in stmt.until.alternatives for s in alt]
        else:
            written(stmt.head_pred, len(stmt.head_args), top and stmt.op == ":=")
            subgoals = stmt.body
        for subgoal in subgoals:
            if isinstance(subgoal, UpdateSubgoal):
                written(subgoal.pred, len(subgoal.args), False)
    return {
        (d.name, d.arity)
        for d in decl.locals
        if (d.name, d.arity) not in unsizable and d.arity not in dynamic_arities
    }


def _callee_fixed(info: PredInfo) -> bool:
    return info.fixed


def _callee_writes(info: PredInfo) -> bool:
    """Builtins do only I/O; a foreign procedure may write anything."""
    return info.klass is PredClass.FOREIGN


def _try_resolve(pred: Term, arity: int, scope: Scope) -> Optional[PredInfo]:
    try:
        return scope.resolve(pred, arity)
    except ScopeError:
        return None


def _call_info(scope: Scope, field: str):
    """The planner's ``call_fixedness`` (``field`` "fixed") or
    ``call_bound_arity`` ("bound_arity"): the field of a callable
    subgoal's info in ``scope``, None for any other subgoal."""

    def call_info(subgoal: PredSubgoal):
        info = _try_resolve(subgoal.pred, len(subgoal.args), scope)
        return getattr(info, field) if info is not None and info.is_callable else None

    return call_info


def scoped_stats(scope: Scope, local_sizes, stats_source):
    """The statistics source for bodies in ``scope``; one resolver for
    compile time and run time, None without ``stats_source``.

    SPECIAL relations (``in``/``return``) are sized at one tuple -- the
    unit-seed default for per-invocation relations -- so an unknowable
    input does not turn every downstream estimate unknown.  A LOCAL
    relation is looked up in ``local_sizes``: at compile time the sizes
    the procedure-level ``:=`` statements compiled so far give
    (:meth:`ProgramCompiler._record_local_size`), at run time the live
    frame's relations.  Everything else goes to ``stats_source``."""
    if stats_source is None:
        return None

    def source(pred, arity):
        info = _try_resolve(pred, arity, scope)
        if info is not None and info.klass is PredClass.SPECIAL:
            return 1
        if info is not None and info.klass is PredClass.LOCAL:
            return local_sizes.get((info.skeleton[0], arity))
        return stats_source(pred, arity)

    return source


def _check_bindings(body: Sequence[object], line: int) -> None:
    try:
        analyze_bindings(body)
    except BindingError as exc:
        raise CompileError(f"line {line}: {exc}") from exc


def _assemble(
    source: AssignStmt, plan: List[Step], state: _ColumnState, ordered: Sequence[object],
    head_ref: PredRef, is_return: bool,
) -> CompiledStmt:
    """A statement from its compiled body and resolved head: the head
    functions for the body's column layout, ``+=[K]`` key positions,
    per-group aggregates and fixedness."""
    colindex = state.colindex
    head_fns = []
    for arg in source.head_args:
        try:
            head_fns.append(compile_term_code(arg, colindex))
        except CompileError as exc:
            raise CompileError(f"line {source.line}: head argument {arg}: {exc}") from exc
    head_name_fn = None
    if not is_ground(source.head_pred):
        free = term_vars(source.head_pred) - set(colindex)
        if free:
            raise CompileError(
                f"line {source.line}: head predicate variables {sorted(free)} unbound"
            )
        head_name_fn = compile_term_code(source.head_pred, colindex)

    key_positions: Tuple[int, ...] = ()
    if source.op == "modify":
        positions = []
        key_names = {v.name for v in source.keys}
        found = set()
        for i, arg in enumerate(source.head_args):
            if isinstance(arg, Var) and arg.name in key_names:
                positions.append(i)
                found.add(arg.name)
        missing = key_names - found
        if missing:
            raise CompileError(
                f"modify keys {sorted(missing)} do not appear in the head"
            )
        key_positions = tuple(positions)

    # ``+=[K]`` keys are head arguments (checked above), so the head
    # covers them.
    _mark_per_group_aggregates(
        plan, ordered, term_vars(source.head_pred) | terms_vars(source.head_args)
    )
    fixed = any(step.is_barrier or isinstance(step, UpdateStep) for step in plan)
    if head_ref.info is None or head_ref.info.klass is PredClass.EDB:
        fixed = True
    return CompiledStmt(
        plan=plan,
        head_ref=head_ref,
        head_fns=tuple(head_fns),
        op=source.op,
        key_positions=key_positions,
        head_name_fn=head_name_fn,
        is_return=is_return,
        fixed=fixed,
        source=source,
    )


def _ordered_new_vars(terms: Sequence[Term], known: Set[str]) -> List[str]:
    """First-occurrence order of named variables not already bound."""
    out: List[str] = []
    for term in terms:
        for var in variables(term):
            if var.is_anonymous or var.name in known or var.name in out:
                continue
            out.append(var.name)
    return out


class ProgramCompiler:
    """Compiles a parsed :class:`Program` into a :class:`CompiledProgram`."""

    def __init__(
        self,
        strict: bool = False,
        foreign_sigs: Sequence[ForeignProc] = (),
        oracles: Oracles = PRODUCT,
        stats_source=None,
    ):
        self.strict = strict
        self.oracles = oracles
        # (pred, arity) -> something repro.opt.stats.coerce_snapshot understands
        # (a Relation, a snapshot, a row count, or None for unknown): the
        # sizes the compile plans with.
        self.stats_source = stats_source
        self.foreign_sigs = {(sig.module, sig.name, sig.arity): sig for sig in foreign_sigs}
        self._fixed_procs: Set[Tuple[Optional[str], str, int]] = set()
        self._writing_procs: Set[Tuple[Optional[str], str, int]] = set()

    # ------------------------------------------------------------------ #
    # entry point
    # ------------------------------------------------------------------ #

    def compile_program(self, program: Program) -> CompiledProgram:
        compiled = CompiledProgram(statement_count=program.statement_count())
        builtin_scope = self._builtin_scope()

        # Pass 1a: create per-module scopes with their own declarations.
        module_scopes: Dict[str, Scope] = {}
        for module in program.modules:
            scope = module_scopes[module.name] = builtin_scope.child(module=module.name)
            self._declare_items(module.items, scope, module.name)
        global_scope = builtin_scope.child(module="__main__")
        self._declare_items(program.items, global_scope, None)

        # Pass 1b: resolve imports (and make exports visible to scripts).
        for module in program.modules:
            self._resolve_imports(module, module_scopes, global_scope)
        for module in program.modules:
            self._export_into(module, module_scopes[module.name], global_scope)

        # Pass 2: the fixed and writing procedures, across all procedures.
        procs = [
            (name, decl, module_scopes[name] if name else global_scope)
            for name, decl in self._iter_procs(program)
        ]
        self._fixed_procs = self._proc_fixpoint(procs, is_fixed_subgoal, _callee_fixed)
        self._writing_procs = self._proc_fixpoint(procs, is_updating_subgoal, _callee_writes)
        self._refresh_proc_infos(program, module_scopes, global_scope)

        # Pass 3: compile procedures, rules and loose statements.
        for module in program.modules:
            self._compile_items(module.items, module_scopes[module.name], module, compiled)
        self._compile_items(program.items, global_scope, None, compiled)
        return compiled

    def _compile_items(
        self, items, scope: Scope, module: Optional[ModuleDecl], compiled: CompiledProgram
    ) -> None:
        """Compile a module's items, or with ``module`` None the program's
        loose ones: every loose procedure is exported, and only loose
        statements form the script."""
        for item in items:
            if isinstance(item, ProcDecl):
                proc = self._compile_proc(item, module.name if module else None, scope)
                proc.exported = module is None or any(
                    sig.name == item.name and sig.arity == item.arity
                    for sig in module.exports
                )
                compiled.procs[proc.key] = proc
                if proc.exported:
                    compiled.exported[(proc.name, proc.arity)] = proc
            elif isinstance(item, RuleDecl):
                compiled.rules.append(item)
            elif isinstance(item, WatchDecl):
                compiled.watches.append(item)
            elif isinstance(item, (AssignStmt, RepeatStmt)):
                if module is not None:
                    raise CompileError(
                        f"module {module.name}: statements must live inside procedures"
                    )
                compiled.script.append(self._compile_any_stmt(item, scope, None, {}))

    # ------------------------------------------------------------------ #
    # scope construction
    # ------------------------------------------------------------------ #

    def _builtin_scope(self) -> Scope:
        scope = Scope(module=None, strict=self.strict)
        for (name, arity), builtin in BUILTIN_PROCS.items():
            scope.declare(
                PredInfo(
                    skeleton=(name, (), arity),
                    klass=PredClass.BUILTIN,
                    arity=arity,
                    bound_arity=builtin.bound_arity,
                    fixed=builtin.fixed,
                    display=f"{name}/{arity}",
                )
            )
        return scope

    def _info_for_proc(
        self, decl: ProcDecl, module: Optional[str], fixed: bool = False
    ) -> PredInfo:
        return PredInfo(
            skeleton=(decl.name, (), decl.arity),
            klass=PredClass.PROC,
            arity=decl.arity,
            bound_arity=decl.bound_arity,
            module=module,
            fixed=fixed,
            display=f"{decl.name}/{decl.arity}",
        )

    def _info_for_edb(self, name: str, arity: int, module: Optional[str]) -> PredInfo:
        return PredInfo(
            skeleton=(name, (), arity),
            klass=PredClass.EDB,
            arity=arity,
            module=module,
            display=f"{name}/{arity}",
        )

    def _info_for_rule_head(self, rule: RuleDecl, module: Optional[str]) -> PredInfo:
        skeleton = pred_skeleton(rule.head_pred, len(rule.head_args))
        if skeleton[0] is None:
            raise CompileError("a NAIL! rule head needs a determinate predicate name")
        return PredInfo(
            skeleton=skeleton,
            klass=PredClass.NAIL,
            arity=len(rule.head_args),
            module=module,
            display=f"{skeleton[0]}/{len(rule.head_args)}",
        )

    def _declare_items(self, items, scope: Scope, module: Optional[str]) -> None:
        """Declare a module's (or, with ``module`` None, the program's loose)
        relations, procedures and rule heads in ``scope``."""
        for item in items:
            if isinstance(item, EdbDecl):
                scope.declare(self._info_for_edb(item.name, item.arity, module))
            elif isinstance(item, ProcDecl):
                scope.declare(self._info_for_proc(item, module))
            elif isinstance(item, RuleDecl):
                scope.declare(self._info_for_rule_head(item, module), allow_override=True)

    def _resolve_imports(
        self, module: ModuleDecl, module_scopes: Dict[str, Scope], global_scope: Scope
    ) -> None:
        scope = module_scopes[module.name]
        for decl in module.imports:
            source_scope = module_scopes.get(decl.module)
            for sig in decl.sigs:
                info = None
                if source_scope is not None:
                    info = source_scope.lookup((sig.name, (), sig.arity))
                if info is None:
                    foreign = self.foreign_sigs.get((decl.module, sig.name, sig.arity))
                    if foreign is None and self.strict:
                        raise CompileError(
                            f"module {module.name}: cannot resolve import "
                            f"{decl.module}.{sig.name}/{sig.arity}"
                        )
                    # Lenient, without a registered signature: assume a
                    # fixed foreign procedure bound later.
                    info = PredInfo(
                        skeleton=(sig.name, (), sig.arity),
                        klass=PredClass.FOREIGN,
                        arity=sig.arity,
                        bound_arity=len(sig.bound) if foreign is None else foreign.bound_arity,
                        module=decl.module,
                        fixed=True if foreign is None else foreign.fixed,
                        display=f"{decl.module}.{sig.name}/{sig.arity}",
                    )
                scope.declare(info, allow_override=True)

    def _export_into(self, module: ModuleDecl, scope: Scope, global_scope: Scope) -> None:
        for sig in module.exports:
            info = scope.lookup((sig.name, (), sig.arity))
            if info is None:
                raise CompileError(
                    f"module {module.name} exports undeclared {sig.name}/{sig.arity}"
                )
            global_scope.declare(info, allow_override=True)

    # ------------------------------------------------------------------ #
    # fixedness
    # ------------------------------------------------------------------ #

    def _iter_procs(self, program: Program):
        for module in program.modules:
            for item in module.items:
                if isinstance(item, ProcDecl):
                    yield module.name, item
        for item in program.items:
            if isinstance(item, ProcDecl):
                yield None, item

    def _proc_fixpoint(self, procs, leaf, callee_bit) -> Set[Tuple[Optional[str], str, int]]:
        """The procedures that carry a bit, closed under calls.

        A procedure carries it if one of its statements assigns to an EDB
        or dynamic head, or if ``leaf(subgoal, call_bit)`` holds for one of
        its subgoals.  ``call_bit`` answers for a called procedure from the
        set found so far and for any other callable from ``callee_bit``.
        Fixedness and writing are this one fixpoint with different leaves.
        """
        marked: Set[Tuple[Optional[str], str, int]] = set()
        changed = True
        while changed:
            changed = False
            for module_name, decl, scope in procs:
                key = (module_name, decl.name, decl.arity)
                if key not in marked and self._proc_has(decl, scope, marked, leaf, callee_bit):
                    marked.add(key)
                    changed = True
        return marked

    def _proc_has(self, decl: ProcDecl, scope: Scope, marked: Set, leaf, callee_bit) -> bool:
        local_names = {(d.name, d.arity) for d in decl.locals}

        def call_bit(subgoal: PredSubgoal) -> Optional[bool]:
            info = _try_resolve(subgoal.pred, len(subgoal.args), scope)
            if info is None or not info.is_callable:
                return None
            if info.klass is PredClass.PROC:
                return (info.module, info.skeleton[0], info.arity) in marked
            return callee_bit(info)

        for stmt, _ in walk_statements(decl.body):
            if isinstance(stmt, RepeatStmt):  # its body is walked separately
                subgoals = [s for alt in stmt.until.alternatives for s in alt]
            elif self._assigns_edb(stmt, scope, local_names):
                return True
            else:
                subgoals = stmt.body
            if any(leaf(s, call_bit) for s in subgoals):
                return True
        return False

    def _assigns_edb(self, stmt: AssignStmt, scope: Scope, local_names) -> bool:
        """Does the statement assign to an EDB relation?  Local relations
        and the return relation are not EDB; a dynamic head may be."""
        head_skel = pred_skeleton(stmt.head_pred, len(stmt.head_args))
        if head_skel[0] == "return" and not head_skel[1]:
            return False
        if (head_skel[0], head_skel[2]) in local_names and not head_skel[1]:
            return False
        if head_skel[0] is None:
            return True  # dynamic head -> assume EDB update
        info = _try_resolve(stmt.head_pred, len(stmt.head_args), scope)
        return info is None or info.klass not in (PredClass.LOCAL, PredClass.SPECIAL)

    def _refresh_proc_infos(
        self, program: Program, module_scopes: Dict[str, Scope], global_scope: Scope
    ) -> None:
        """Re-declare proc infos with the final fixedness bits."""
        for module_name, item in self._iter_procs(program):
            scope = module_scopes[module_name] if module_name else global_scope
            key = (module_name, item.name, item.arity)
            scope.declare(
                self._info_for_proc(item, module_name, key in self._fixed_procs),
                allow_override=True,
            )
        # Exports must reflect the refreshed infos too.
        for module in program.modules:
            self._export_into(module, module_scopes[module.name], global_scope)

    # ------------------------------------------------------------------ #
    # procedures
    # ------------------------------------------------------------------ #

    def _compile_proc(self, decl: ProcDecl, module: Optional[str], scope: Scope) -> CompiledProc:
        proc_scope = scope.child()
        for local in decl.locals:
            proc_scope.declare(
                PredInfo(
                    skeleton=(local.name, (), local.arity),
                    klass=PredClass.LOCAL,
                    arity=local.arity,
                    module=module,
                    display=f"{local.name}/{local.arity} (local)",
                ),
                allow_override=True,
            )
        for name, arity in (("in", decl.bound_arity), ("return", decl.arity)):
            proc_scope.declare(
                PredInfo(
                    skeleton=(name, (), arity),
                    klass=PredClass.SPECIAL,
                    arity=arity,
                    display=name,
                ),
                allow_override=True,
            )
        # Each sizable local, with the size of its latest procedure-level
        # ``:=`` so far (see _record_local_size); None while unknown.
        local_sizes = dict.fromkeys(_sizable_locals(decl))
        body = [self._compile_any_stmt(stmt, proc_scope, decl, local_sizes) for stmt in decl.body]
        key = (module, decl.name, decl.arity)
        return CompiledProc(
            module=module,
            name=decl.name,
            bound_params=tuple(v.name for v in decl.bound_params),
            free_params=tuple(v.name for v in decl.free_params),
            locals=tuple((d.name, d.arity) for d in decl.locals),
            body=body,
            fixed=key in self._fixed_procs,
            writes=key in self._writing_procs,
        )

    def _compile_any_stmt(self, stmt, scope: Scope, proc: Optional[ProcDecl], local_sizes):
        if isinstance(stmt, RepeatStmt):
            return self._compile_repeat(stmt, scope, proc, local_sizes)
        return self._compile_stmt(stmt, scope, proc, local_sizes)

    def _compile_repeat(self, stmt: RepeatStmt, scope: Scope, proc, local_sizes) -> CompiledRepeat:
        body = [self._compile_any_stmt(inner, scope, proc, local_sizes) for inner in stmt.body]
        until_alts = [
            self._compile_body(list(alt), scope, local_sizes, 0)[0]
            for alt in stmt.until.alternatives
        ]
        return CompiledRepeat(body=body, until_alts=until_alts, source=stmt)

    # ------------------------------------------------------------------ #
    # statements
    # ------------------------------------------------------------------ #

    def _compile_stmt(self, stmt: AssignStmt, scope: Scope, proc, local_sizes) -> CompiledStmt:
        body = list(stmt.body)
        is_return = False
        head_pred = stmt.head_pred
        head_args = stmt.head_args

        if isinstance(head_pred, Atom) and head_pred.name == "return":
            if proc is None:
                raise CompileError("return assignment outside a procedure")
            is_return = True
            if len(head_args) != proc.arity:
                raise CompileError(
                    f"return head arity {len(head_args)} != procedure arity {proc.arity}"
                )
            split = stmt.head_bound if stmt.head_bound is not None else proc.bound_arity
            if split != proc.bound_arity:
                raise CompileError(
                    "':' in return head must match the procedure's bound arity"
                )
            # "An assignment statement that assigns to the return relation
            # has an implicit in subgoal as its first subgoal."
            body = [PredSubgoal(pred=Atom("in"), args=head_args[:split])] + body
        elif stmt.head_bound is not None:
            raise CompileError("':' in a head is only meaningful for return")

        plan, state, ordered, annotated = self._compile_body(body, scope, local_sizes, stmt.line)
        head_ref = self._head_ref(head_pred, len(head_args), scope, stmt, is_return)
        compiled = _assemble(stmt, plan, state, ordered, head_ref, is_return)
        self._record_local_size(stmt, head_ref, state.group_cols, annotated, local_sizes)
        if self._compiled_blind(plan, annotated):
            compiled.replan = Replan(
                body=tuple(body), ordered=ordered, scope=scope, oracles=self.oracles,
                call_fixedness=_call_info(scope, "fixed"),
                call_bound_arity=_call_info(scope, "bound_arity"),
            )
        return compiled

    def _record_local_size(
        self, stmt: AssignStmt, head_ref: PredRef, group_cols, annotated, local_sizes
    ) -> None:
        """Size a local from the ``:=`` statement that just compiled, so
        later statements of the procedure plan against it.

        Rows are the statement's final estimate; a head argument that is a
        group column gets ``min(its distinct estimate, rows)`` distinct
        values, any other argument an unknown count.  An unknown final
        estimate forgets the local's previous size.
        """
        info = head_ref.info
        if info is None or info.klass is not PredClass.LOCAL or stmt.op != ":=":
            return
        key = (info.skeleton[0], info.arity)
        if key not in local_sizes:
            return
        rows = annotated.steps[-1].est_rows if annotated and annotated.steps else None
        if rows is None:
            local_sizes[key] = None
            return
        rows = math.ceil(rows)
        distincts = tuple(
            min(math.ceil(annotated.distinct[arg.name]), rows)
            if isinstance(arg, Var)
            and arg.name in group_cols
            and arg.name in annotated.distinct
            else None
            for arg in stmt.head_args
        )
        local_sizes[key] = RelationSnapshot(
            name=head_ref.pred, arity=info.arity, rows=rows, distincts=distincts
        )

    def _compiled_blind(self, plan: Sequence[Step], annotated: Optional[OptPlan]) -> bool:
        """Whether a statement re-plans at run time (paper Section 10:
        "Glue programs create and update many relations at run-time").

        It does when the cost planner ordered it without the size of some
        relation it scans -- an unsized local or a relation the statistics
        source did not know -- since the live frame or database can supply
        that size later.  NAIL! predicates stay unsized at run time too,
        and a plan carrying ``unchanged`` history keeps its compiled form:
        a variant would start a fresh history.
        """
        if self.oracles.written_order or annotated is None:
            return False
        if any(isinstance(step, UnchangedStep) for step in plan):
            return False
        return any(
            isinstance(step, ScanStep)
            and step.name_fn is None
            and planned.source_rows is None
            and (step.ref.info is None or step.ref.info.klass is not PredClass.NAIL)
            for step, planned in zip(plan, annotated.steps)
        )

    def _head_ref(
        self, head_pred: Term, arity: int, scope: Scope, stmt: AssignStmt, is_return: bool
    ) -> PredRef:
        if not is_ground(head_pred):
            return PredRef(pred=head_pred, arity=arity, info=None)
        info = _try_resolve(head_pred, arity, scope)
        if info is None and self.strict and not is_return:
            raise CompileError(f"line {stmt.line}: undeclared head relation {head_pred}/{arity}")
        if info is not None:
            if info.klass is PredClass.NAIL:
                raise CompileError(
                    f"line {stmt.line}: cannot assign to NAIL! predicate {head_pred}"
                )
            if info.is_callable:
                raise CompileError(
                    f"line {stmt.line}: cannot assign to procedure {head_pred}"
                )
        elif not is_return:
            # Lenient: implicitly declare an EDB relation.
            skeleton = pred_skeleton(head_pred, arity)
            info = PredInfo(
                skeleton=skeleton,
                klass=PredClass.EDB,
                arity=arity,
                display=f"{head_pred}/{arity}",
            )
            scope.declare(info, allow_override=True)
        return PredRef(pred=head_pred, arity=arity, info=info)

    # ------------------------------------------------------------------ #
    # bodies
    # ------------------------------------------------------------------ #

    def _compile_body(
        self, body: List[object], scope: Scope, local_sizes, line: int
    ) -> Tuple[List[Step], _ColumnState, Tuple[object, ...], Optional[OptPlan]]:
        stats = scoped_stats(scope, local_sizes, self.stats_source)
        body, annotated = self._order_body(body, scope, stats)
        _check_bindings(body, line)
        if annotated is None and stats is not None:
            # The planner's estimates for the body in its final order (one
            # step per subgoal); without statistics they are unknown, not 0.
            annotated = self._plan(body, scope, stats, pipeline=())
        plan, state = self._compile_ordered(body, scope, line, annotated)
        return plan, state, tuple(body), annotated

    def _compile_ordered(
        self, body: Sequence[object], scope: Scope, line: int, annotated: Optional[OptPlan]
    ) -> Tuple[List[Step], _ColumnState]:
        """Compile a body in its given order; ``annotated`` holds the
        planner's steps for that order, whose estimates the scans show."""
        state = _ColumnState()
        plan: List[Step] = []
        for pos, subgoal in enumerate(body):
            step = self._compile_subgoal(subgoal, scope, state, line)
            if annotated is not None and isinstance(step, (ScanStep, NegScanStep)):
                step.est_rows = annotated.steps[pos].est_rows
            plan.append(step)
        return plan, state

    def _order_body(
        self, body: List[object], scope: Scope, stats
    ) -> Tuple[List[object], Optional[OptPlan]]:
        """Choose the body's evaluation order.

        The shared :mod:`repro.opt` pass pipeline orders it; the
        ``written_order`` oracle keeps the written order.  Both fall back
        to the statistics-free plan (the greedy unbound-argument-ratio
        schedule) when their order does not bind-check -- some bodies only
        compile reordered, and the oracle must not reject programs that
        the planner accepts.  Returns the order and, when the planner
        chose it with statistics, its plan: the estimates of that order.
        """
        planned = None
        if self.oracles.written_order:
            candidate = list(body)
        else:
            planned = self._plan(body, scope, stats)
            candidate = list(planned.ordered_body)
        try:
            analyze_bindings(candidate)
            return candidate, planned if stats is not None else None
        except BindingError:
            pass
        return list(self._plan(body, scope, None).ordered_body), None

    def _plan(
        self, body: Sequence[object], scope: Scope, stats,
        pipeline: Tuple[str, ...] = DEFAULT_COST_PIPELINE,
    ) -> OptPlan:
        return plan_body(
            tuple(body),
            stats=stats,
            pipeline=pipeline,
            call_fixedness=_call_info(scope, "fixed"),
            call_bound_arity=_call_info(scope, "bound_arity"),
        )

    def _compile_subgoal(self, subgoal, scope: Scope, state: _ColumnState, line: int) -> Step:
        step = self._subgoal_step(subgoal, scope, state, line)
        step.columns_out = tuple(state.columns)
        return step

    def _subgoal_step(self, subgoal, scope: Scope, state: _ColumnState, line: int) -> Step:
        colindex = state.colindex
        if isinstance(subgoal, PredSubgoal):
            return self._compile_pred_subgoal(subgoal, scope, state, line)
        if isinstance(subgoal, CompareSubgoal):
            return self._compile_compare(subgoal, state, line)
        if isinstance(subgoal, UpdateSubgoal):
            ref, name_fn = self._relation_ref(subgoal.pred, len(subgoal.args), scope, colindex)
            if ref.info is not None and not ref.info.is_relation:
                raise CompileError(
                    f"line {line}: {subgoal.op}{subgoal.pred} must target a relation"
                )
            return UpdateStep(
                op=subgoal.op,
                ref=ref,
                pattern_fn=compile_pattern(subgoal.args, colindex),
                name_fn=name_fn,
            )
        if isinstance(subgoal, GroupBySubgoal):
            names = [t.name for t in subgoal.terms]  # safety checked these are Vars
            for name in names:
                if name not in state.group_cols:
                    state.group_cols.append(name)
            return GroupByStep(group_cols=tuple(state.group_cols))
        if isinstance(subgoal, EmptyCond):
            ref, name_fn = self._relation_ref(subgoal.pred, len(subgoal.args), scope, colindex)
            return EmptyStep(
                ref=ref,
                pattern_fn=compile_pattern(subgoal.args, colindex),
                name_fn=name_fn,
            )
        if isinstance(subgoal, UnchangedCond):
            ref, name_fn = self._relation_ref(subgoal.pred, subgoal.arity, scope, colindex)
            if name_fn is not None:
                raise CompileError(f"line {line}: unchanged() needs a static predicate")
            return UnchangedStep(ref=ref)
        if isinstance(subgoal, UnionSubgoal):
            return self._compile_union(subgoal, scope, state, line)
        raise CompileError(f"line {line}: cannot compile subgoal {subgoal!r}")

    def _compile_union(
        self, subgoal: UnionSubgoal, scope: Scope, state: _ColumnState, line: int
    ) -> Step:
        """Compile a body disjunction: one sub-plan per alternative, all
        binding the same new variables (checked by safety analysis)."""
        call_fix = _call_info(scope, "fixed")
        for alt in subgoal.alternatives:
            for inner in alt:
                if is_fixed_subgoal(inner, call_fix):
                    raise CompileError(
                        f"line {line}: fixed subgoals (updates, aggregation, I/O) "
                        "are not allowed inside a body disjunction"
                    )
        base_columns = list(state.columns)
        canonical: Optional[List[str]] = None
        compiled: List[Tuple[List[Step], Tuple[int, ...]]] = []
        for alt in subgoal.alternatives:
            alt_state = _ColumnState(
                columns=list(base_columns), group_cols=list(state.group_cols)
            )
            plan = [self._compile_subgoal(s, scope, alt_state, line) for s in alt]
            new_vars = [c for c in alt_state.columns if c not in base_columns]
            if canonical is None:
                canonical = new_vars
            elif set(new_vars) != set(canonical):
                raise CompileError(
                    f"line {line}: disjunction alternatives bind different "
                    f"variables: {sorted(canonical)} vs {sorted(new_vars)}"
                )
            extract = tuple(alt_state.columns.index(v) for v in canonical)
            compiled.append((plan, extract))
        assert canonical is not None
        state.add(canonical)
        return UnionStep(
            alternatives=compiled,
            new_vars=tuple(canonical),
        )

    def _relation_ref(
        self, pred: Term, arity: int, scope: Scope, colindex: Dict[str, int]
    ) -> Tuple[PredRef, Optional[object]]:
        """Resolve a predicate reference used as a relation (scan/update)."""
        if is_ground(pred):
            info = _try_resolve(pred, arity, scope)
            if info is None and scope.strict:
                raise CompileError(f"undeclared predicate {pred}/{arity} (strict mode)")
            return PredRef(pred=pred, arity=arity, info=info), None
        candidates = tuple(scope.candidates(arity))
        name_fn = compile_term_code(pred, colindex)
        return PredRef(pred=pred, arity=arity, info=None, candidates=candidates), name_fn

    def _compile_pred_subgoal(
        self, subgoal: PredSubgoal, scope: Scope, state: _ColumnState, line: int
    ) -> Step:
        colindex = state.colindex
        known = set(state.columns)
        arity = len(subgoal.args)

        # Literal truth values.
        if isinstance(subgoal.pred, Atom) and arity == 0 and subgoal.pred.name in ("true", "false"):
            return TruthStep(value=(subgoal.pred.name == "true") != subgoal.negated)

        if subgoal.negated:
            ref, name_fn = self._relation_ref(subgoal.pred, arity, scope, colindex)
            if ref.info is not None and ref.info.is_callable:
                raise CompileError(f"line {line}: cannot negate a procedure call")
            lit = classify_join_columns(
                subgoal.pred, subgoal.args, frozenset(known), subgoal.negated
            )
            return NegScanStep(
                ref=ref,
                pattern_fn=compile_pattern(subgoal.args, colindex),
                lit=lit,
                key_build=lit.key_build(colindex),
                name_fn=name_fn,
            )

        name_fn = None
        if is_ground(subgoal.pred):
            info = _try_resolve(subgoal.pred, arity, scope)
            if info is not None and info.is_callable:
                return self._compile_call(subgoal, info, state, line)
            if info is None and scope.strict:
                raise CompileError(
                    f"line {line}: undeclared predicate {subgoal.pred}/{arity} (strict mode)"
                )
            ref = PredRef(pred=subgoal.pred, arity=arity, info=info)
        else:
            # Predicate-variable (HiLog) subgoal: name instantiated per row.
            candidates = tuple(scope.candidates(arity))
            name_fn = compile_term_code(subgoal.pred, colindex)
            ref = PredRef(pred=subgoal.pred, arity=arity, info=None, candidates=candidates)
        new_vars = _ordered_new_vars(subgoal.args, known)
        state.add(new_vars)
        if name_fn is not None:
            # Builtins are a closed vocabulary that set-valued attributes
            # never name, so only user procedures/foreigns force run-time
            # dispatch.
            any_callable = any(
                c.is_callable and c.klass is not PredClass.BUILTIN for c in candidates
            )
            if self.oracles.runtime_dispatch or any_callable:
                return DynamicStep(
                    ref=ref,
                    name_fn=name_fn,
                    pattern_fn=compile_pattern(subgoal.args, colindex),
                    new_vars=tuple(new_vars),
                )
        # A stored or derived relation, or a HiLog subgoal whose every
        # candidate is one: go straight to storage at run time (for HiLog,
        # the compile-time dereferencing win).
        lit = classify_join_columns(
            subgoal.pred, subgoal.args, frozenset(known), subgoal.negated
        )
        return ScanStep(
            ref=ref,
            pattern_fn=compile_pattern(subgoal.args, colindex),
            lit=lit,
            key_build=lit.key_build(colindex),
            new_vars=tuple(new_vars),
            name_fn=name_fn,
        )

    def _compile_call(
        self, subgoal: PredSubgoal, info: PredInfo, state: _ColumnState, line: int
    ) -> Step:
        colindex = state.colindex
        known = set(state.columns)
        bound_arity = info.bound_arity
        inputs = subgoal.args[:bound_arity]
        outputs = subgoal.args[bound_arity:]
        input_fns = []
        for arg in inputs:
            try:
                input_fns.append(compile_term_code(arg, colindex))
            except CompileError as exc:
                raise CompileError(
                    f"line {line}: input argument {arg} of {info.display}: {exc}"
                ) from exc
        new_vars = _ordered_new_vars(outputs, known)
        state.add(new_vars)
        ref = PredRef(pred=subgoal.pred, arity=len(subgoal.args), info=info)
        return CallStep(
            ref=ref,
            input_fns=tuple(input_fns),
            free_pattern_fn=compile_pattern(outputs, colindex),
            new_vars=tuple(new_vars),
            fixed=info.fixed,
        )

    def _compile_compare(self, subgoal: CompareSubgoal, state: _ColumnState, line: int) -> Step:
        colindex = state.colindex
        left, right, op = subgoal.left, subgoal.right, subgoal.op
        left_agg = expr_has_agg(left)
        right_agg = expr_has_agg(right)
        if left_agg and right_agg:
            raise CompileError(f"line {line}: aggregates on both sides of '{op}'")
        if left_agg:
            left, right = right, left
            op = _RELOP_FLIP[op]
            right_agg = True
        if right_agg:
            if not isinstance(right, AggCall):
                raise CompileError(
                    f"line {line}: an aggregate must be the whole right-hand side"
                )
            try:
                arg_fn = compile_expr(right.arg, colindex)
            except CompileError as exc:
                raise CompileError(f"line {line}: aggregate argument: {exc}") from exc
            group_positions = tuple(
                colindex[name] for name in state.group_cols if name in colindex
            )
            binds = (
                op == "="
                and isinstance(left, Var)
                and not left.is_anonymous
                and left.name not in colindex
            )
            if binds:
                state.add([left.name])
                return AggStep(
                    agg_op=right.op,
                    arg_fn=arg_fn,
                    binds=True,
                    group_positions=group_positions,
                )
            left_fn = compile_expr(left, colindex)
            return AggStep(
                agg_op=right.op,
                arg_fn=arg_fn,
                binds=False,
                compare_op=op,
                left_fn=left_fn,
                group_positions=group_positions,
            )
        # No aggregates: a binding or a filter.
        if op == "=":
            if isinstance(left, Var) and not left.is_anonymous and left.name not in colindex:
                fn = compile_expr(right, colindex)
                state.add([left.name])
                return BindStep(var=left.name, fn=fn)
            if isinstance(right, Var) and not right.is_anonymous and right.name not in colindex:
                fn = compile_expr(left, colindex)
                state.add([right.name])
                return BindStep(var=right.name, fn=fn)
        left_fn = compile_expr(left, colindex)
        right_fn = compile_expr(right, colindex)
        return CompareStep(op=op, left_fn=left_fn, right_fn=right_fn)


def compile_variant(stmt: CompiledStmt, planned: OptPlan) -> CompiledStmt:
    """A statement marked for re-planning, compiled for the order the plan
    cache chose at run time, with that plan's estimates.

    Only the body, in the planned order, and the head functions compile
    again; the head stays the one the compile resolved, so the scope is
    only read.  ``stmt`` itself comes back when the order is its compiled
    one, or when the order does not bind-check: the compiled plan runs
    rather than fail at run time.
    """
    replan = stmt.replan
    ordered = planned.ordered_body
    if ordered == replan.ordered:
        return stmt
    line = stmt.source.line
    try:
        _check_bindings(ordered, line)
        compiler = ProgramCompiler(oracles=replan.oracles)
        plan, state = compiler._compile_ordered(ordered, replan.scope, line, planned)
        return _assemble(stmt.source, plan, state, ordered, stmt.head_ref, stmt.is_return)
    except CompileError:
        return stmt
