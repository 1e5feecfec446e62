"""The NAIL!-to-Glue compiler.

"NAIL! code is compiled into Glue code, simplifying the system design"
(paper abstract); "NAIL! code is compiled into Glue procedures; the Glue
optimizer runs over all the code" (Section 11).  This module turns a
stratified NAIL! rule set into a Glue module: one procedure per stratum,
each a uniondiff loop in Glue's own repeat/until -- a round ``:=``-assigns
the next delta (a procedure local; negation-as-difference drops known
tuples) and ``+=``-adds it to the relation, until every delta is
``empty`` -- plus a driver procedure that runs the strata bottom-up.

The generated program is ordinary Glue source: it parses, compiles and
optimizes through the standard pipeline, which is exactly the paper's
single-optimizer story.  Output predicates materialize as EDB-class
relations in whatever database the generated code runs against.

Limitations (documented, tested): compound-named (HiLog-family) heads and
predicate-variable body literals fall back to the native engine, since the
generated module needs static relation names for its deltas.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.depgraph import build_dependency_graph
from repro.analysis.scope import Skeleton, pred_skeleton
from repro.analysis.stratify import stratify
from repro.errors import UnsafeRuleError
from repro.lang.ast import (
    AssignStmt,
    CondDisjunction,
    EdbDecl,
    EmptyCond,
    ExportDecl,
    ModuleDecl,
    PredSig,
    PredSubgoal,
    ProcDecl,
    Program,
    RepeatStmt,
    RuleDecl,
)
from repro.lang.pretty import pretty_program
from repro.nail.rules import check_rule_safety
from repro.record import Record
from repro.terms.term import Atom, Term, Var, variables


from repro.errors import GlueNailError as _GlueNailError


class Nail2GlueError(_GlueNailError):
    """The rule set is outside the compilable fragment."""


class Nail2GlueResult(Record):
    """The generated Glue program plus everything needed to run it."""

    __slots__ = ("program", "source", "driver_proc", "stratum_procs", "output_preds")

    def __init__(self, program: Program, source: str, driver_proc: str,
                 stratum_procs: Tuple[str, ...], output_preds: Tuple[Tuple[str, int], ...]) -> None:
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "driver_proc", driver_proc)
        object.__setattr__(self, "stratum_procs", stratum_procs)
        object.__setattr__(self, "output_preds", output_preds)


def _head_name(skeleton: Skeleton) -> str:
    name, chain, _arity = skeleton
    if chain or name is None:
        raise Nail2GlueError(
            f"cannot compile compound-named head {skeleton} to Glue"
        )
    return name


def _fresh_args(arity: int) -> Tuple[Var, ...]:
    return tuple(Var(f"V{i}") for i in range(arity))


def _delta_name(name: str, arity: int) -> str:
    return f"delta__{name}__{arity}"


def _new_name(name: str, arity: int) -> str:
    return f"new__{name}__{arity}"


def _check_fragment(rules: Sequence[RuleDecl]) -> None:
    for rule in rules:
        try:
            check_rule_safety(rule)
        except UnsafeRuleError as exc:
            raise Nail2GlueError(f"rule is unsafe for bottom-up Glue code: {exc}") from exc
        for subgoal in rule.body:
            if isinstance(subgoal, PredSubgoal):
                for var in variables(subgoal.pred):
                    raise Nail2GlueError(
                        "predicate-variable literals fall back to the native engine"
                    )


def compile_rules_to_glue(rules: Sequence[RuleDecl]) -> Nail2GlueResult:
    """Compile a stratified NAIL! rule set into an equivalent Glue module."""
    rules = list(rules)
    _check_fragment(rules)
    dep = build_dependency_graph(rules)
    strata = stratify(dep)

    idb: Set[Skeleton] = dep.idb_skeletons()
    output_preds: List[Tuple[str, int]] = sorted(
        {(_head_name(s), s[2]) for s in idb}
    )

    procs: List[ProcDecl] = []
    stratum_proc_names: List[str] = []
    for stratum in strata:
        proc = _compile_stratum(stratum.index, stratum.skeletons, dep.rules_by_head)
        procs.append(proc)
        stratum_proc_names.append(proc.name)

    driver = _compile_driver(stratum_proc_names)
    procs.append(driver)

    items: List[object] = []
    # Export the driver so callers can invoke it by name.
    items.append(ExportDecl(sigs=(PredSig(name=driver.name, bound=(), free=()),)))
    for name, arity in output_preds:
        items.append(EdbDecl(name=name, attrs=tuple(f"A{i}" for i in range(arity))))
    items.extend(procs)

    module = ModuleDecl(name="nail_generated", items=tuple(items))
    program = Program(modules=(module,), items=())
    return Nail2GlueResult(
        program=program,
        source=pretty_program(program),
        driver_proc=driver.name,
        stratum_procs=tuple(stratum_proc_names),
        output_preds=tuple(output_preds),
    )


def _assign(pred: Term, args: Sequence[Term], op: str, body, line: int = 0) -> AssignStmt:
    return AssignStmt(
        head_pred=Atom(pred), head_args=tuple(args), op=op, body=tuple(body), line=line
    )


def _copy(target: str, source: str, arity: int, op: str) -> AssignStmt:
    """``target(V0, ..) op source(V0, ..).``"""
    args = _fresh_args(arity)
    return _assign(target, args, op, (PredSubgoal(pred=Atom(source), args=args),))


def _return_true() -> AssignStmt:
    # Signal success so the driver's conjunction keeps flowing.
    return AssignStmt(
        head_pred=Atom("return"),
        head_args=(),
        op=":=",
        body=(PredSubgoal(pred=Atom("true"), args=()),),
        head_bound=0,
    )


def _compile_stratum(
    index: int,
    skeletons: frozenset,
    rules_by_head: Dict[Skeleton, List[RuleDecl]],
) -> ProcDecl:
    preds: List[Tuple[str, int]] = sorted({(_head_name(s), s[2]) for s in skeletons})
    rules = sorted(
        (rule for skeleton in skeletons for rule in rules_by_head.get(skeleton, ())),
        key=lambda r: (str(r.head_pred), r.line),
    )
    body: List[object] = []
    # One seminaive statement per (rule, recursive position): the body with
    # that literal read from its delta, minus what is already known
    # (negation = set difference).  Base rules fill the relations directly.
    steps: List[Tuple[Tuple[str, int], RuleDecl, tuple]] = []
    for rule in rules:
        positions = [
            i
            for i, subgoal in enumerate(rule.body)
            if isinstance(subgoal, PredSubgoal)
            and not subgoal.negated
            and pred_skeleton(subgoal.pred, len(subgoal.args)) in skeletons
        ]
        if not positions:
            body.append(_assign(rule.head_pred, rule.head_args, "+=", rule.body, rule.line))
            continue
        head = (_head_name(pred_skeleton(rule.head_pred, len(rule.head_args))), len(rule.head_args))
        for position in positions:
            literal = rule.body[position]
            name, _chain, arity = pred_skeleton(literal.pred, len(literal.args))
            delta = PredSubgoal(pred=Atom(_delta_name(name, arity)), args=literal.args)
            negation = PredSubgoal(pred=Atom(head[0]), args=rule.head_args, negated=True)
            step_body = rule.body[:position] + (delta,) + rule.body[position + 1 :]
            steps.append((head, rule, step_body + (negation,)))

    locals_: List[EdbDecl] = []
    if steps:
        # The uniondiff loop.  With one step, each round overwrites the
        # delta and adds it to the relation.  With more, a later step must
        # not read a delta an earlier one overwrote, so the steps write
        # staging relations that become the next deltas after the round.
        staged = len(steps) > 1
        for name, arity in preds:
            attrs = tuple(f"A{i}" for i in range(arity))
            locals_.append(EdbDecl(name=_delta_name(name, arity), attrs=attrs))
            if staged:
                locals_.append(EdbDecl(name=_new_name(name, arity), attrs=attrs))
            body.append(_copy(_delta_name(name, arity), name, arity, ":="))
        loop: List[object] = []
        written: Set[Tuple[str, int]] = set()
        for head, rule, step_body in steps:
            target = (_new_name if staged else _delta_name)(*head)
            op = "+=" if head in written else ":="
            written.add(head)
            loop.append(_assign(target, rule.head_args, op, step_body, rule.line))
        for name, arity in preds:
            delta = _delta_name(name, arity)
            if staged:
                loop.append(_copy(delta, _new_name(name, arity), arity, ":="))
            loop.append(_copy(name, delta, arity, "+="))
        empty = tuple(
            EmptyCond(pred=Atom(_delta_name(name, arity)), args=(Var("_"),) * arity)
            for name, arity in preds
        )
        body.append(RepeatStmt(body=tuple(loop), until=CondDisjunction(alternatives=(empty,))))

    body.append(_return_true())
    return ProcDecl(
        name=f"nail_stratum_{index}",
        bound_params=(),
        free_params=(),
        locals=tuple(locals_),
        body=tuple(body),
    )


def _compile_driver(stratum_procs: Sequence[str]) -> ProcDecl:
    body: List[object] = []
    if stratum_procs:
        subgoals = tuple(PredSubgoal(pred=Atom(name), args=()) for name in stratum_procs)
        body.append(_assign("done__", (), ":=", subgoals))
    body.append(_return_true())
    return ProcDecl(
        name="nail_eval_all",
        bound_params=(),
        free_params=(),
        locals=(EdbDecl(name="done__", attrs=()),),
        body=tuple(body),
    )
