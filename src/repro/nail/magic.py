"""Magic-sets transformation: demand-driven NAIL! query evaluation.

NAIL! predicates are computed on demand and only "the appropriate parts"
(paper Section 2).  For a query with bound arguments the engine rewrites
the relevant rules with magic predicates so that bottom-up evaluation only
derives tuples relevant to the demand.  The transformation follows the
classic left-to-right sideways-information-passing strategy.

HiLog interplay: predicate-variable body literals are treated as EDB
lookups (their name must be bound by the time they are reached), and a
parameterized predicate such as ``tc(E, X, Y)`` becomes evaluable even when
its plain bottom-up reading is unsafe -- the magic seed supplies the
bindings, exactly the reading the paper's Section 5.2 example needs.

Hash-join interplay: rewritten rule bodies place the magic literal first,
so the hash-join evaluator (:mod:`repro.nail.bodyeval`) broadcasts the
(small) magic relation once and then *probes* every subsequent literal on
the demand-bound columns -- the magic bindings become hash keys, and the
per-round cost tracks the demanded subgraph rather than the full EDB.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.bindings import expr_has_agg, expr_vars, term_vars
from repro.analysis.scope import pred_skeleton
from repro.lang.ast import CompareSubgoal, GroupBySubgoal, PredSubgoal, RuleDecl
from repro.record import Record
from repro.terms.term import Atom, Term, Var, is_ground, variables

Adornment = str  # e.g. "bbf"


from repro.errors import GlueNailError


class MagicTransformError(GlueNailError):
    """The rule slice is outside the transformable fragment (negation on
    IDB predicates, aggregates, or compound-named heads)."""


class MagicProgram(Record):
    """The output of the transformation."""

    __slots__ = ("rules", "answer_pred", "seed_pred", "seed_row", "adornment")

    def __init__(self, rules: Tuple[RuleDecl, ...], answer_pred: Term, seed_pred: Term,
                 seed_row: Tuple[Term, ...], adornment: Adornment) -> None:
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "answer_pred", answer_pred)
        object.__setattr__(self, "seed_pred", seed_pred)
        object.__setattr__(self, "seed_row", seed_row)
        object.__setattr__(self, "adornment", adornment)

    @property
    def seed_arity(self) -> int:
        return len(self.seed_row)


def _adorned_name(name: str, adornment: Adornment) -> Atom:
    return Atom(f"{name}@{adornment}")


def _magic_name(name: str, adornment: Adornment) -> Atom:
    return Atom(f"magic@{name}@{adornment}")


def _literal_adornment(args: Sequence[Term], bound: Set[str]) -> Adornment:
    """``b`` for an argument every variable of which is bound; an anonymous
    variable is never bound, so its position is ``f``."""
    return "".join(
        "b" if all(not v.is_anonymous and v.name in bound for v in variables(arg))
        else "f"
        for arg in args
    )


def _bound_args(args: Sequence[Term], adornment: Adornment) -> Tuple[Term, ...]:
    return tuple(arg for arg, a in zip(args, adornment) if a == "b")


def magic_transform(
    rules: Sequence[RuleDecl], query_pred: Term, query_args: Sequence[Term]
) -> MagicProgram:
    """Rewrite ``rules`` for the query ``query_pred(query_args)``.

    ``query_args`` may mix constants (bound) and variables (free); at least
    one argument should be bound for the transformation to pay off, though
    an all-free query is legal (it degenerates to full evaluation with a
    trivially-true magic seed).
    """
    if not isinstance(query_pred, Atom):
        raise MagicTransformError("magic transformation needs an atom-named query")
    arity = len(query_args)
    idb: Set[Tuple[str, int]] = set()
    rules_by_pred: Dict[Tuple[str, int], List[RuleDecl]] = {}
    hilog_bases: Set[str] = set()
    for rule in rules:
        skeleton = pred_skeleton(rule.head_pred, len(rule.head_args))
        if skeleton[1]:
            # Compound-named (HiLog family) heads cannot be adorned; they
            # only poison the transform if the query actually reaches them
            # (checked during the walk below).
            if skeleton[0] is not None:
                hilog_bases.add(skeleton[0])
            continue
        key = (skeleton[0], skeleton[2])
        idb.add(key)
        rules_by_pred.setdefault(key, []).append(rule)
    if (query_pred.name, arity) not in idb:
        raise MagicTransformError(f"{query_pred.name}/{arity} has no rules")

    query_adornment = "".join(
        "b" if is_ground(arg) else "f" for arg in query_args
    )

    out_rules: List[RuleDecl] = []
    done: Set[Tuple[str, int, Adornment]] = set()
    queue: List[Tuple[str, int, Adornment]] = [(query_pred.name, arity, query_adornment)]

    while queue:
        name, pred_arity, adornment = queue.pop()
        if (name, pred_arity, adornment) in done:
            continue
        done.add((name, pred_arity, adornment))
        for rule in rules_by_pred.get((name, pred_arity), ()):
            out_rules.extend(
                _transform_rule(rule, name, adornment, idb, queue, hilog_bases)
            )

    return MagicProgram(
        rules=tuple(out_rules),
        answer_pred=_adorned_name(query_pred.name, query_adornment),
        seed_pred=_magic_name(query_pred.name, query_adornment),
        seed_row=tuple(a for a in query_args if is_ground(a)),
        adornment=query_adornment,
    )


def _transform_rule(
    rule: RuleDecl,
    name: str,
    adornment: Adornment,
    idb: Set[Tuple[str, int]],
    queue: List[Tuple[str, int, Adornment]],
    hilog_bases: Set[str] = frozenset(),
) -> List[RuleDecl]:
    """Adorn one rule for one head adornment; returns the rewritten rule
    plus the magic rules it spawns."""
    out: List[RuleDecl] = []
    head_args = rule.head_args
    magic_head_args = _bound_args(head_args, adornment)
    magic_literal = PredSubgoal(
        pred=_magic_name(name, adornment), args=magic_head_args
    )

    bound: Set[str] = set()
    for arg in magic_head_args:
        bound |= term_vars(arg)

    new_body: List[object] = [magic_literal]
    for subgoal in rule.body:
        if isinstance(subgoal, CompareSubgoal):
            if expr_has_agg(subgoal.left) or expr_has_agg(subgoal.right):
                raise MagicTransformError("aggregates are outside the magic fragment")
            new_body.append(subgoal)
            if subgoal.op == "=" and isinstance(subgoal.left, Var):
                if not (expr_vars(subgoal.right) - bound):
                    bound.add(subgoal.left.name)
            if subgoal.op == "=" and isinstance(subgoal.right, Var):
                if not (expr_vars(subgoal.left) - bound):
                    bound.add(subgoal.right.name)
            continue
        if isinstance(subgoal, GroupBySubgoal):
            raise MagicTransformError("group_by is outside the magic fragment")
        assert isinstance(subgoal, PredSubgoal)
        skeleton = pred_skeleton(subgoal.pred, len(subgoal.args))
        if skeleton[0] is None and (hilog_bases or any(a == skeleton[2] for _, a in idb)):
            # A predicate variable may name an IDB predicate, whose rules
            # the rewritten program would not carry: fall back to full eval.
            raise MagicTransformError(
                f"predicate variable {subgoal.pred} may name an IDB predicate"
            )
        if skeleton[1] and skeleton[0] in hilog_bases:
            # The query reaches a compound-named (HiLog family) IDB
            # predicate, which magic cannot adorn: fall back to full eval.
            raise MagicTransformError(
                f"query reaches compound-named IDB predicate {subgoal.pred}"
            )
        key = (skeleton[0], skeleton[2])
        is_idb = skeleton[0] is not None and not skeleton[1] and key in idb
        if subgoal.negated:
            if is_idb:
                raise MagicTransformError(
                    f"negated IDB literal !{subgoal.pred} is outside the magic fragment"
                )
            new_body.append(subgoal)
            continue
        if not is_idb:
            # EDB literal, or a predicate variable that can only name EDB
            # relations: a plain join.
            new_body.append(subgoal)
            for arg in subgoal.args:
                bound |= term_vars(arg)
            bound |= term_vars(subgoal.pred)
            continue
        # An IDB literal: compute its adornment, emit its magic rule, and
        # replace it by its adorned version.
        literal_ad = _literal_adornment(subgoal.args, bound)
        magic_rule = RuleDecl(
            head_pred=_magic_name(skeleton[0], literal_ad),
            head_args=_bound_args(subgoal.args, literal_ad),
            body=tuple(new_body),
            line=rule.line,
        )
        out.append(magic_rule)
        queue.append((skeleton[0], skeleton[2], literal_ad))
        new_body.append(
            PredSubgoal(pred=_adorned_name(skeleton[0], literal_ad), args=subgoal.args)
        )
        for arg in subgoal.args:
            bound |= term_vars(arg)

    out.append(
        RuleDecl(
            head_pred=_adorned_name(name, adornment),
            head_args=head_args,
            body=tuple(new_body),
            line=rule.line,
        )
    )
    return out
