"""Abstract syntax for Glue-Nail programs.

All nodes are frozen dataclasses so ASTs are hashable and structurally
comparable; the parser/pretty-printer round-trip test relies on this.

Expressions (the right-hand sides of comparison subgoals) are trees over
``Term`` leaves with :class:`BinOp` / :class:`UnaryOp` / :class:`FunCall`
(built-in functions such as ``concat``) and :class:`AggCall` (the aggregate
operators of paper Section 3.3) as interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.terms.term import Term, Var

# --------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # one of + - * / mod
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class UnaryOp:
    op: str  # -
    operand: object


@dataclass(frozen=True, slots=True)
class FunCall:
    """A built-in function application inside an expression."""

    name: str
    args: Tuple[object, ...]


@dataclass(frozen=True, slots=True)
class AggCall:
    """An aggregate operator application, e.g. ``min(T)``.

    The argument is an expression over variables bound earlier in the body;
    the operator ranges over the tuples of the preceding supplementary
    relation (per group once ``group_by`` has partitioned it).
    """

    op: str  # min max mean sum product arbitrary std_dev count
    arg: object


Expr = object  # Term | BinOp | UnaryOp | FunCall | AggCall


# --------------------------------------------------------------------- #
# subgoals
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class PredSubgoal:
    """An ordinary subgoal ``p(args)``.

    ``pred`` is a term: an atom for a plain predicate, a variable for a
    HiLog predicate-variable subgoal (``E_set(Emp)``), or a compound term
    for a parameterized predicate (``students(ID)(Name)``).
    """

    pred: Term
    args: Tuple[Term, ...]
    negated: bool = False

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True, slots=True)
class CompareSubgoal:
    """``left op right`` with op in = != < > <= >=.

    ``Var = expr`` acts as a binding when the variable is unbound and as a
    filter when it is bound; other comparisons are filters.
    """

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class UpdateSubgoal:
    """An EDB-updating subgoal in a body: ``++p(args)`` inserts the current
    binding's instantiation, ``--p(args)`` deletes all matching tuples.
    Update subgoals are *fixed* (paper Section 3.1) and force a pipeline
    break (Section 9)."""

    op: str  # "++" or "--"
    pred: Term
    args: Tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class GroupBySubgoal:
    """``group_by(T1, ..., Tk)``: partitions the supplementary relation into
    maximal groups agreeing on the argument terms; cascades."""

    terms: Tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class UnchangedCond:
    """``unchanged(p(...))``: true when p has not changed since the last time
    this syntactic occurrence was evaluated; always false on first use."""

    pred: Term
    arity: int


@dataclass(frozen=True, slots=True)
class EmptyCond:
    """``empty(p(args))``: true when no tuple of p matches the args."""

    pred: Term
    args: Tuple[Term, ...]


@dataclass(frozen=True, slots=True)
class UnionSubgoal:
    """A body disjunction ``{ c1 | c2 | ... }``.

    The paper's footnote 5 notes that bodies "may contain control
    operators other than conjunction" without specifying them; this
    reproduction provides disjunction as that extension.  Every
    alternative must bind the same set of new variables, and alternatives
    may not contain fixed subgoals (their execution count would be
    ambiguous).
    """

    alternatives: Tuple[Tuple[object, ...], ...]


Subgoal = object  # one of the subgoal classes above


@dataclass(frozen=True, slots=True)
class CondDisjunction:
    """An until-condition: ``{ c1 | c2 | ... }`` -- true when any alternative
    holds; each alternative is a conjunction of condition subgoals."""

    alternatives: Tuple[Tuple[Subgoal, ...], ...]


# --------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class AssignStmt:
    """A Glue assignment statement (paper Section 3).

    ``head_bound`` carries the position of the ``:`` in a ``return(X:Y)``
    head (the number of input-extension arguments); it is ``None`` for
    ordinary heads.  ``keys`` holds the key variables of a modify
    assignment ``+=[Z1,...]`` and is empty otherwise.
    """

    head_pred: Term
    head_args: Tuple[Term, ...]
    op: str  # ":=", "+=", "-=", "modify"
    body: Tuple[Subgoal, ...]
    keys: Tuple[Var, ...] = ()
    head_bound: Optional[int] = None
    line: int = field(default=0, compare=False)

    @property
    def is_return(self) -> bool:
        from repro.terms.term import Atom

        return self.head_pred == Atom("return")


@dataclass(frozen=True, slots=True)
class RepeatStmt:
    """``repeat <statements> until <condition>;``"""

    body: Tuple[object, ...]
    until: CondDisjunction
    line: int = field(default=0, compare=False)


Statement = object  # AssignStmt | RepeatStmt


def walk_statements(stmts, top: bool = True):
    """Yield ``(stmt, top)`` for every statement of a body, each ``repeat``
    before its own body; ``top`` is False inside a loop."""
    for stmt in stmts:
        yield stmt, top
        if isinstance(stmt, RepeatStmt):
            yield from walk_statements(stmt.body, False)


# --------------------------------------------------------------------- #
# declarations
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class PredSig:
    """A predicate signature with a binding pattern: ``tc_e(X:Y)`` has one
    bound and one free argument; ``select(:Key)`` has zero bound."""

    name: str
    bound: Tuple[str, ...]
    free: Tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.bound) + len(self.free)


@dataclass(frozen=True, slots=True)
class EdbDecl:
    """``edb element(Key, Origin, ...)``: declares an EDB relation."""

    name: str
    attrs: Tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.attrs)


@dataclass(frozen=True, slots=True)
class WatchDecl:
    """``watch path(X, Y) call handler;`` -- a Glue-level active rule.

    Runs procedure ``proc`` on every committed delta of ``pred``/len(args)
    with ``(op, row...)`` input tuples (``op`` is the atom ``insert`` or
    ``delete``).  Ground head arguments double as a row filter; variables
    are wildcards.  ``module`` qualifies the handler (``call m.p``).
    """

    pred: Term
    args: Tuple[Term, ...]
    proc: str
    module: Optional[str] = None
    line: int = field(default=0, compare=False)

    @property
    def arity(self) -> int:
        return len(self.args)


@dataclass(frozen=True, slots=True)
class ImportDecl:
    module: str
    sigs: Tuple[PredSig, ...]


@dataclass(frozen=True, slots=True)
class ExportDecl:
    sigs: Tuple[PredSig, ...]


@dataclass(frozen=True, slots=True)
class RuleDecl:
    """A NAIL! rule ``head :- body.`` -- purely declarative, no side effects."""

    head_pred: Term
    head_args: Tuple[Term, ...]
    body: Tuple[Subgoal, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class ProcDecl:
    """A Glue procedure (paper Section 4)."""

    name: str
    bound_params: Tuple[Var, ...]
    free_params: Tuple[Var, ...]
    locals: Tuple[EdbDecl, ...]  # local relations: name + attribute names
    body: Tuple[Statement, ...]
    line: int = field(default=0, compare=False)

    @property
    def arity(self) -> int:
        return len(self.bound_params) + len(self.free_params)

    @property
    def bound_arity(self) -> int:
        return len(self.bound_params)


ModuleItem = object  # ExportDecl | ImportDecl | EdbDecl-list | ProcDecl | RuleDecl


@dataclass(frozen=True, slots=True)
class ModuleDecl:
    """A compile-time module (paper Section 6)."""

    name: str
    items: Tuple[ModuleItem, ...]

    @property
    def exports(self) -> Tuple[PredSig, ...]:
        out = []
        for item in self.items:
            if isinstance(item, ExportDecl):
                out.extend(item.sigs)
        return tuple(out)

    @property
    def imports(self) -> Tuple[ImportDecl, ...]:
        return tuple(item for item in self.items if isinstance(item, ImportDecl))

    @property
    def edb_decls(self) -> Tuple[EdbDecl, ...]:
        return tuple(item for item in self.items if isinstance(item, EdbDecl))

    @property
    def procs(self) -> Tuple[ProcDecl, ...]:
        return tuple(item for item in self.items if isinstance(item, ProcDecl))

    @property
    def rules(self) -> Tuple[RuleDecl, ...]:
        return tuple(item for item in self.items if isinstance(item, RuleDecl))


@dataclass(frozen=True, slots=True)
class Program:
    """A parsed compilation unit: modules plus loose top-level items (rules,
    procedures and declarations outside any module, for scripts/tests)."""

    modules: Tuple[ModuleDecl, ...] = ()
    items: Tuple[ModuleItem, ...] = field(default=())

    def statement_count(self) -> int:
        """Number of Glue statements and NAIL! rules -- the unit of the
        paper's 'two statements per Mips-second' compile-speed figure."""

        def count_stmts(stmts) -> int:
            return sum(
                not isinstance(stmt, RepeatStmt) for stmt, _ in walk_statements(stmts)
            )

        total = 0
        for module in self.modules:
            for item in module.items:
                if isinstance(item, ProcDecl):
                    total += count_stmts(item.body)
                elif isinstance(item, RuleDecl):
                    total += 1
        for item in self.items:
            if isinstance(item, ProcDecl):
                total += count_stmts(item.body)
            elif isinstance(item, RuleDecl):
                total += 1
        return total
