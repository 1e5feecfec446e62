"""The NAIL!-to-Glue compiler.

"NAIL! code is compiled into Glue code, simplifying the system design"
(paper abstract); "NAIL! code is compiled into Glue procedures; the Glue
optimizer runs over all the code" (Section 11).  This module turns a
stratified NAIL! rule set into a Glue module: one procedure per stratum,
each running the seminaive fixpoint with Glue's own repeat/until,
``unchanged`` termination tests, delta relations held in procedure-local
relations, and negation-as-difference -- plus a driver procedure that runs
the strata bottom-up.

The generated program is ordinary Glue source: it parses, compiles and
optimizes through the standard pipeline, which is exactly the paper's
single-optimizer story.  Output predicates materialize as EDB-class
relations in whatever database the generated code runs against.

Limitations (documented, tested): compound-named (HiLog-family) heads and
predicate-variable body literals fall back to the native engine, since the
generated module needs static relation names for its deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.depgraph import build_dependency_graph
from repro.analysis.scope import Skeleton, pred_skeleton
from repro.analysis.stratify import stratify
from repro.errors import UnsafeRuleError
from repro.lang.ast import (
    AssignStmt,
    CondDisjunction,
    EdbDecl,
    ModuleDecl,
    PredSig,
    PredSubgoal,
    ProcDecl,
    Program,
    RepeatStmt,
    RuleDecl,
    UnchangedCond,
)
from repro.lang.pretty import pretty_program
from repro.nail.rules import check_rule_safety
from repro.terms.term import Atom, Term, Var, variables


from repro.errors import GlueNailError as _GlueNailError


class Nail2GlueError(_GlueNailError):
    """The rule set is outside the compilable fragment."""


@dataclass(frozen=True)
class Nail2GlueResult:
    """The generated Glue program plus everything needed to run it."""

    program: Program
    source: str
    driver_proc: str
    stratum_procs: Tuple[str, ...]
    output_preds: Tuple[Tuple[str, int], ...]


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
    items.append(
        _export([PredSig(name=driver.name, bound=(), free=())])
    )
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


def _export(sigs: Sequence[PredSig]):
    from repro.lang.ast import ExportDecl

    return ExportDecl(sigs=tuple(sigs))


def _compile_stratum(
    index: int,
    skeletons: frozenset,
    rules_by_head: Dict[Skeleton, List[RuleDecl]],
) -> ProcDecl:
    preds: List[Tuple[str, int]] = sorted({(_head_name(s), s[2]) for s in skeletons})
    stratum_rules: List[RuleDecl] = []
    for skeleton in skeletons:
        stratum_rules.extend(rules_by_head.get(skeleton, ()))
    stratum_rules.sort(key=lambda r: (str(r.head_pred), r.line))

    same_stratum_names = {(name, arity) for name, arity in preds}

    def recursive_positions(rule: RuleDecl) -> List[int]:
        positions = []
        for i, subgoal in enumerate(rule.body):
            if isinstance(subgoal, PredSubgoal) and not subgoal.negated:
                skel = pred_skeleton(subgoal.pred, len(subgoal.args))
                if skel[0] is not None and (skel[0], skel[2]) in same_stratum_names:
                    positions.append(i)
        return positions

    base_rules = [r for r in stratum_rules if not recursive_positions(r)]
    rec_rules = [(r, recursive_positions(r)) for r in stratum_rules if recursive_positions(r)]

    locals_: List[EdbDecl] = []
    for name, arity in preds:
        attrs = tuple(f"A{i}" for i in range(arity))
        locals_.append(EdbDecl(name=_delta_name(name, arity), attrs=attrs))
        locals_.append(EdbDecl(name=_new_name(name, arity), attrs=attrs))

    body: List[object] = []
    # Base rules populate the output relations directly.
    for rule in base_rules:
        body.append(
            AssignStmt(
                head_pred=rule.head_pred,
                head_args=rule.head_args,
                op="+=",
                body=rule.body,
                line=rule.line,
            )
        )

    if rec_rules:
        # Seed the deltas with everything derived so far.
        for name, arity in preds:
            args = _fresh_args(arity)
            body.append(
                AssignStmt(
                    head_pred=Atom(_delta_name(name, arity)),
                    head_args=args,
                    op=":=",
                    body=(PredSubgoal(pred=Atom(name), args=args),),
                )
            )
        loop_body: List[object] = []
        # Clear the per-round "new" relations (X -= X empties a relation
        # while keeping the head variables bound by the body).
        for name, arity in preds:
            args = _fresh_args(arity)
            new = Atom(_new_name(name, arity))
            loop_body.append(
                AssignStmt(
                    head_pred=new,
                    head_args=args,
                    op="-=",
                    body=(PredSubgoal(pred=new, args=args),),
                )
            )
        # One statement per (rule, recursive position): the seminaive join
        # with the delta, minus what is already known (negation = set diff).
        for rule, positions in rec_rules:
            head_skel = pred_skeleton(rule.head_pred, len(rule.head_args))
            head_name = _head_name(head_skel)
            for position in positions:
                new_body: List[object] = []
                for i, subgoal in enumerate(rule.body):
                    if i == position:
                        assert isinstance(subgoal, PredSubgoal)
                        skel = pred_skeleton(subgoal.pred, len(subgoal.args))
                        new_body.append(
                            PredSubgoal(
                                pred=Atom(_delta_name(skel[0], skel[2])),
                                args=subgoal.args,
                            )
                        )
                    else:
                        new_body.append(subgoal)
                new_body.append(
                    PredSubgoal(
                        pred=Atom(head_name), args=rule.head_args, negated=True
                    )
                )
                loop_body.append(
                    AssignStmt(
                        head_pred=Atom(_new_name(head_name, len(rule.head_args))),
                        head_args=rule.head_args,
                        op="+=",
                        body=tuple(new_body),
                        line=rule.line,
                    )
                )
        # Merge the new tuples and roll the deltas.
        for name, arity in preds:
            args = _fresh_args(arity)
            new = Atom(_new_name(name, arity))
            loop_body.append(
                AssignStmt(
                    head_pred=Atom(name),
                    head_args=args,
                    op="+=",
                    body=(PredSubgoal(pred=new, args=args),),
                )
            )
            loop_body.append(
                AssignStmt(
                    head_pred=Atom(_delta_name(name, arity)),
                    head_args=args,
                    op=":=",
                    body=(PredSubgoal(pred=new, args=args),),
                )
            )
        until = CondDisjunction(
            alternatives=(
                tuple(
                    UnchangedCond(pred=Atom(name), arity=arity) for name, arity in preds
                ),
            )
        )
        body.append(RepeatStmt(body=tuple(loop_body), until=until))

    # Signal success so the driver's conjunction keeps flowing.
    body.append(
        AssignStmt(
            head_pred=Atom("return"),
            head_args=(),
            op=":=",
            body=(PredSubgoal(pred=Atom("true"), args=()),),
            head_bound=0,
        )
    )
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
        body.append(
            AssignStmt(
                head_pred=Atom("done__"),
                head_args=(),
                op=":=",
                body=subgoals,
            )
        )
    body.append(
        AssignStmt(
            head_pred=Atom("return"),
            head_args=(),
            op=":=",
            body=(PredSubgoal(pred=Atom("true"), args=()),),
            head_bound=0,
        )
    )
    return ProcDecl(
        name="nail_eval_all",
        bound_params=(),
        free_params=(),
        locals=(EdbDecl(name="done__", attrs=()),),
        body=tuple(body),
    )
