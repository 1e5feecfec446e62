"""Abstract syntax for Glue-Nail programs.

All nodes are immutable :class:`~repro.record.Record` classes, so ASTs
are hashable and structurally comparable; the parser/pretty-printer
round-trip test relies on this.  A statement's source ``line`` takes no
part in equality.

Expressions (the right-hand sides of comparison subgoals) are trees over
``Term`` leaves with :class:`BinOp` / :class:`UnaryOp` / :class:`FunCall`
(built-in functions such as ``concat``) and :class:`AggCall` (the aggregate
operators of paper Section 3.3) as interior nodes.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.record import Record
from repro.terms.term import Term, Var

# --------------------------------------------------------------------- #
# expressions
# --------------------------------------------------------------------- #


class BinOp(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: object, right: object) -> None:
        object.__setattr__(self, "op", op)  # one of + - * / mod
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class UnaryOp(Record):
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: object) -> None:
        object.__setattr__(self, "op", op)  # -
        object.__setattr__(self, "operand", operand)


class FunCall(Record):
    """A built-in function application inside an expression."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[object, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)


class AggCall(Record):
    """An aggregate operator application, e.g. ``min(T)``.

    The argument is an expression over variables bound earlier in the body;
    the operator ranges over the tuples of the preceding supplementary
    relation (per group once ``group_by`` has partitioned it).
    """

    __slots__ = ("op", "arg")

    def __init__(self, op: str, arg: object) -> None:
        object.__setattr__(self, "op", op)  # min max mean sum product arbitrary std_dev count
        object.__setattr__(self, "arg", arg)


Expr = object  # Term | BinOp | UnaryOp | FunCall | AggCall


# --------------------------------------------------------------------- #
# subgoals
# --------------------------------------------------------------------- #


class PredSubgoal(Record):
    """An ordinary subgoal ``p(args)``.

    ``pred`` is a term: an atom for a plain predicate, a variable for a
    HiLog predicate-variable subgoal (``E_set(Emp)``), or a compound term
    for a parameterized predicate (``students(ID)(Name)``).
    """

    __slots__ = ("pred", "args", "negated")

    def __init__(self, pred: Term, args: Tuple[Term, ...], negated: bool = False) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "negated", negated)

    @property
    def arity(self) -> int:
        return len(self.args)


class CompareSubgoal(Record):
    """``left op right`` with op in = != < > <= >=.

    ``Var = expr`` acts as a binding when the variable is unbound and as a
    filter when it is bound; other comparisons are filters.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


class UpdateSubgoal(Record):
    """An EDB-updating subgoal in a body: ``++p(args)`` inserts the current
    binding's instantiation, ``--p(args)`` deletes all matching tuples.
    Update subgoals are *fixed* (paper Section 3.1) and force a pipeline
    break (Section 9)."""

    __slots__ = ("op", "pred", "args")

    def __init__(self, op: str, pred: Term, args: Tuple[Term, ...]) -> None:
        object.__setattr__(self, "op", op)  # "++" or "--"
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)


class GroupBySubgoal(Record):
    """``group_by(T1, ..., Tk)``: partitions the supplementary relation into
    maximal groups agreeing on the argument terms; cascades."""

    __slots__ = ("terms",)

    def __init__(self, terms: Tuple[Term, ...]) -> None:
        object.__setattr__(self, "terms", terms)


class UnchangedCond(Record):
    """``unchanged(p(...))``: true when p has not changed since the last time
    this syntactic occurrence was evaluated; always false on first use."""

    __slots__ = ("pred", "arity")

    def __init__(self, pred: Term, arity: int) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "arity", arity)


class EmptyCond(Record):
    """``empty(p(args))``: true when no tuple of p matches the args."""

    __slots__ = ("pred", "args")

    def __init__(self, pred: Term, args: Tuple[Term, ...]) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)


class UnionSubgoal(Record):
    """A body disjunction ``{ c1 | c2 | ... }``.

    The paper's footnote 5 notes that bodies "may contain control
    operators other than conjunction" without specifying them; this
    reproduction provides disjunction as that extension.  Every
    alternative must bind the same set of new variables, and alternatives
    may not contain fixed subgoals (their execution count would be
    ambiguous).
    """

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: Tuple[Tuple[object, ...], ...]) -> None:
        object.__setattr__(self, "alternatives", alternatives)


Subgoal = object  # one of the subgoal classes above


class CondDisjunction(Record):
    """An until-condition: ``{ c1 | c2 | ... }`` -- true when any alternative
    holds; each alternative is a conjunction of condition subgoals."""

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: Tuple[Tuple[Subgoal, ...], ...]) -> None:
        object.__setattr__(self, "alternatives", alternatives)


# --------------------------------------------------------------------- #
# statements
# --------------------------------------------------------------------- #


class AssignStmt(Record, uncompared=("line",)):
    """A Glue assignment statement (paper Section 3).

    ``head_bound`` carries the position of the ``:`` in a ``return(X:Y)``
    head (the number of input-extension arguments); it is ``None`` for
    ordinary heads.  ``keys`` holds the key variables of a modify
    assignment ``+=[Z1,...]`` and is empty otherwise.
    """

    __slots__ = ("head_pred", "head_args", "op", "body", "keys", "head_bound", "line")

    def __init__(self, head_pred: Term, head_args: Tuple[Term, ...], op: str,
                 body: Tuple[Subgoal, ...], keys: Tuple[Var, ...] = (),
                 head_bound: Optional[int] = None, line: int = 0) -> None:
        object.__setattr__(self, "head_pred", head_pred)
        object.__setattr__(self, "head_args", head_args)
        object.__setattr__(self, "op", op)  # ":=", "+=", "-=", "modify"
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "head_bound", head_bound)
        object.__setattr__(self, "line", line)

    @property
    def is_return(self) -> bool:
        from repro.terms.term import Atom

        return self.head_pred == Atom("return")


class RepeatStmt(Record, uncompared=("line",)):
    """``repeat <statements> until <condition>;``"""

    __slots__ = ("body", "until", "line")

    def __init__(self, body: Tuple[object, ...], until: CondDisjunction, line: int = 0) -> None:
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "until", until)
        object.__setattr__(self, "line", line)


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


class PredSig(Record):
    """A predicate signature with a binding pattern: ``tc_e(X:Y)`` has one
    bound and one free argument; ``select(:Key)`` has zero bound."""

    __slots__ = ("name", "bound", "free")

    def __init__(self, name: str, bound: Tuple[str, ...], free: Tuple[str, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "free", free)

    @property
    def arity(self) -> int:
        return len(self.bound) + len(self.free)


class EdbDecl(Record):
    """``edb element(Key, Origin, ...)``: declares an EDB relation."""

    __slots__ = ("name", "attrs")

    def __init__(self, name: str, attrs: Tuple[str, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attrs", attrs)

    @property
    def arity(self) -> int:
        return len(self.attrs)


class WatchDecl(Record, uncompared=("line",)):
    """``watch path(X, Y) call handler;`` -- a Glue-level active rule.

    Runs procedure ``proc`` on every committed delta of ``pred``/len(args)
    with ``(op, row...)`` input tuples (``op`` is the atom ``insert`` or
    ``delete``).  Ground head arguments double as a row filter; variables
    are wildcards.  ``module`` qualifies the handler (``call m.p``).
    """

    __slots__ = ("pred", "args", "proc", "module", "line")

    def __init__(self, pred: Term, args: Tuple[Term, ...], proc: str, module: Optional[str] = None,
                 line: int = 0) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "proc", proc)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "line", line)

    @property
    def arity(self) -> int:
        return len(self.args)


class ImportDecl(Record):
    __slots__ = ("module", "sigs")

    def __init__(self, module: str, sigs: Tuple[PredSig, ...]) -> None:
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "sigs", sigs)


class ExportDecl(Record):
    __slots__ = ("sigs",)

    def __init__(self, sigs: Tuple[PredSig, ...]) -> None:
        object.__setattr__(self, "sigs", sigs)


class RuleDecl(Record, uncompared=("line",)):
    """A NAIL! rule ``head :- body.`` -- purely declarative, no side effects."""

    __slots__ = ("head_pred", "head_args", "body", "line")

    def __init__(self, head_pred: Term, head_args: Tuple[Term, ...], body: Tuple[Subgoal, ...],
                 line: int = 0) -> None:
        object.__setattr__(self, "head_pred", head_pred)
        object.__setattr__(self, "head_args", head_args)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "line", line)


class ProcDecl(Record, uncompared=("line",)):
    """A Glue procedure (paper Section 4)."""

    __slots__ = ("name", "bound_params", "free_params", "locals", "body", "line")

    def __init__(self, name: str, bound_params: Tuple[Var, ...], free_params: Tuple[Var, ...],
                 locals: Tuple[EdbDecl, ...], body: Tuple[Statement, ...], line: int = 0) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "bound_params", bound_params)
        object.__setattr__(self, "free_params", free_params)
        object.__setattr__(self, "locals", locals)  # local relations: name + attribute names
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "line", line)

    @property
    def arity(self) -> int:
        return len(self.bound_params) + len(self.free_params)

    @property
    def bound_arity(self) -> int:
        return len(self.bound_params)


ModuleItem = object  # ExportDecl | ImportDecl | EdbDecl-list | ProcDecl | RuleDecl


class ModuleDecl(Record):
    """A compile-time module (paper Section 6)."""

    __slots__ = ("name", "items")

    def __init__(self, name: str, items: Tuple[ModuleItem, ...]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "items", items)

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


class Program(Record):
    """A parsed compilation unit: modules plus loose top-level items (rules,
    procedures and declarations outside any module, for scripts/tests)."""

    __slots__ = ("modules", "items")

    def __init__(self, modules: Tuple[ModuleDecl, ...] = (),
                 items: Tuple[ModuleItem, ...] = ()) -> None:
        object.__setattr__(self, "modules", modules)
        object.__setattr__(self, "items", items)

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
