"""EXPLAIN: human-readable rendering of compiled plans.

Shows what the compiler decided -- subgoal order after optimization,
resolved predicate classes, pipeline barriers, column layouts -- the
information the paper's Section 9 discussion is about.
"""

from __future__ import annotations

from typing import List

from repro.opt.plan import fmt_est
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
    ScanStep,
    Step,
    TruthStep,
    UnchangedStep,
    UnionStep,
    UpdateStep,
)


def _ref_text(ref: PredRef) -> str:
    name = str(ref.pred)
    if ref.info is not None:
        return f"{name}/{ref.arity} [{ref.info.klass.name}]"
    if ref.candidates:
        classes = sorted({c.klass.name for c in ref.candidates})
        return f"{name}/{ref.arity} [dynamic: {'|'.join(classes)}]"
    return f"{name}/{ref.arity} [dynamic]"


def _join_text(step) -> str:
    """The hash-join annotation of a scan: its probe-key columns (empty
    keys mean a broadcast / one-shot test, so nothing is shown)."""
    if not step.lit.probe_cols:
        return ""
    return f" key@{list(step.lit.probe_cols)}"


def _est_text(step: Step) -> str:
    """The planner's row estimate, when one was available at plan time."""
    est = getattr(step, "est_rows", None)
    if est is None:
        return ""
    return f" est~{fmt_est(est)}"


def explain_step(step: Step) -> str:
    barrier = " <<BREAK>>" if step.is_barrier else ""
    cols = ",".join(step.columns_out) if getattr(step, "columns_out", ()) else "-"
    if isinstance(step, ScanStep):
        kind = "SCAN"
        detail = _ref_text(step.ref)
        if step.new_vars:
            detail += f" binds({','.join(step.new_vars)})"
        detail += _join_text(step) + _est_text(step)
    elif isinstance(step, NegScanStep):
        kind = "ANTIJOIN"
        detail = "!" + _ref_text(step.ref) + _join_text(step) + _est_text(step)
    elif isinstance(step, CompareStep):
        kind = "FILTER"
        detail = f"op '{step.op}'"
    elif isinstance(step, BindStep):
        kind = "BIND"
        detail = f"{step.var} = <expr>"
    elif isinstance(step, AggStep):
        kind = "AGGREGATE"
        mode = "bind" if step.binds else f"filter '{step.compare_op}'"
        if step.per_group:
            mode += ", per group"
        groups = f" groups@{list(step.group_positions)}" if step.group_positions else ""
        detail = f"{step.agg_op} ({mode}){groups}"
    elif isinstance(step, GroupByStep):
        kind = "GROUP_BY"
        detail = ",".join(step.group_cols)
    elif isinstance(step, CallStep):
        kind = "CALL"
        detail = _ref_text(step.ref) + f" in/{len(step.input_fns)}"
    elif isinstance(step, DynamicStep):
        kind = "DISPATCH"
        detail = _ref_text(step.ref)
    elif isinstance(step, UpdateStep):
        kind = "UPDATE"
        detail = f"{step.op}{_ref_text(step.ref)}"
    elif isinstance(step, EmptyStep):
        kind = "EMPTY?"
        detail = _ref_text(step.ref)
    elif isinstance(step, UnchangedStep):
        kind = "UNCHANGED?"
        detail = _ref_text(step.ref)
    elif isinstance(step, TruthStep):
        kind = "CONST"
        detail = "true" if step.value else "false"
    elif isinstance(step, UnionStep):
        kind = "UNION"
        detail = f"{len(step.alternatives)} alternatives binds({','.join(step.new_vars)})"
    else:  # pragma: no cover - future step kinds
        kind = type(step).__name__
        detail = ""
    return f"{kind:10s} {detail:44s} cols=({cols}){barrier}"


def step_label(step: Step) -> str:
    """The EXPLAIN line for one step, collapsed to single spaces.

    Used as the deterministic ``name`` of ``step`` trace events so EXPLAIN
    ANALYZE output lines up with plain EXPLAIN.
    """
    return " ".join(explain_step(step).split())


def stmt_label(stmt: CompiledStmt) -> str:
    """A compact label for a compiled assignment (trace ``stmt`` events)."""
    op = stmt.op if stmt.op != "modify" else f"+=[{','.join(map(str, stmt.key_positions))}]"
    return f"{_ref_text(stmt.head_ref)} {op}"


def explain_stmt(stmt, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(stmt, CompiledRepeat):
        lines.append(f"{pad}REPEAT")
        for inner in stmt.body:
            lines.extend(explain_stmt(inner, indent + 1))
        for i, alt in enumerate(stmt.until_alts):
            lines.append(f"{pad}UNTIL alt#{i}")
            for step in alt:
                lines.append(f"{pad}  {explain_step(step)}")
        return lines
    assert isinstance(stmt, CompiledStmt)
    op = stmt.op if stmt.op != "modify" else f"+=[{','.join(map(str, stmt.key_positions))}]"
    fixed = " (fixed)" if stmt.fixed else ""
    lines.append(f"{pad}ASSIGN {_ref_text(stmt.head_ref)} {op}{fixed}")
    for step in stmt.plan:
        lines.append(f"{pad}  {explain_step(step)}")
    return lines


def explain_proc(proc: CompiledProc) -> str:
    header = (
        f"proc {proc.name}/{proc.arity} "
        f"(bound={list(proc.bound_params)}, free={list(proc.free_params)}, "
        f"fixed={proc.fixed})"
    )
    lines = [header]
    if proc.locals:
        lines.append(f"  locals: {', '.join(f'{n}/{a}' for n, a in proc.locals)}")
    for stmt in proc.body:
        lines.extend(explain_stmt(stmt, indent=1))
    return "\n".join(lines)


def explain_program(program: CompiledProgram) -> str:
    parts = []
    for key in sorted(program.procs, key=str):
        parts.append(explain_proc(program.procs[key]))
    if program.script:
        lines = ["script:"]
        for stmt in program.script:
            lines.extend(explain_stmt(stmt, indent=1))
        parts.append("\n".join(lines))
    if program.rules:
        parts.append(f"NAIL! rules: {len(program.rules)} (evaluated by the engine)")
    return "\n\n".join(parts)
