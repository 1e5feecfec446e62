"""Predicate classes and lexical scope (paper Sections 2, 6, 9).

Every subgoal name belongs to one of four predicate classes -- EDB
relation, local relation, NAIL! predicate, or Glue procedure (plus builtins
and foreign procedures in this implementation).  The compiler resolves the
class of every statically-known name, and narrows the candidate set for
predicate-variable subgoals, at compile time: "it is very important to
identify at compile time those subgoals which cannot possibly be procedure
calls."
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Dict, List, Optional, Tuple

from repro.record import Record
from repro.terms.term import Atom, Compound, Term, Var


from repro.errors import CompileError


class ScopeError(CompileError):
    """A name-resolution error (undeclared predicate in strict mode,
    conflicting declarations, assignment to a read-only class, ...)."""


class PredClass(Enum):
    EDB = auto()        # extensional relation, persistent
    LOCAL = auto()      # procedure-local relation (fresh per invocation)
    NAIL = auto()       # NAIL! predicate: IDB, derived on demand
    PROC = auto()       # Glue procedure
    BUILTIN = auto()    # built-in procedure (I/O etc.)
    FOREIGN = auto()    # foreign (Python) procedure
    SPECIAL = auto()    # the in/return relations of the enclosing procedure


Skeleton = Tuple[Optional[str], Tuple[int, ...], int]


def pred_skeleton(pred: Term, arity: int) -> Skeleton:
    """The compile-time identity of a predicate reference.

    A predicate name may be a compound term (HiLog); its *skeleton* is the
    base atom plus the chain of application arities.  Examples::

        p/2                 -> ("p", (), 2)
        students(ID)/1      -> ("students", (1,), 1)
        X/2 (pred variable) -> (None, (), 2)
    """
    chain: List[int] = []
    term = pred
    while isinstance(term, Compound):
        chain.append(len(term.args))
        term = term.functor
    chain.reverse()
    if isinstance(term, Atom):
        return (term.name, tuple(chain), arity)
    if isinstance(term, Var):
        return (None, tuple(chain), arity)
    raise ScopeError(f"bad predicate name: {pred}")


class PredInfo(Record):
    """Everything the compiler knows about one predicate."""

    __slots__ = ("skeleton", "klass", "arity", "bound_arity", "module", "fixed", "display")

    def __init__(self, skeleton: Skeleton, klass: PredClass, arity: int, bound_arity: int = 0,
                 module: Optional[str] = None, fixed: bool = False, display: str = "") -> None:
        object.__setattr__(self, "skeleton", skeleton)
        object.__setattr__(self, "klass", klass)
        object.__setattr__(self, "arity", arity)
        # for PROC/BUILTIN/FOREIGN: input arity
        object.__setattr__(self, "bound_arity", bound_arity)
        object.__setattr__(self, "module", module)  # defining module
        object.__setattr__(self, "fixed", fixed)  # has side effects / aggregation
        object.__setattr__(self, "display", display)  # human-readable name for messages

    @property
    def is_callable(self) -> bool:
        return self.klass in (PredClass.PROC, PredClass.BUILTIN, PredClass.FOREIGN)

    @property
    def is_relation(self) -> bool:
        return self.klass in (PredClass.EDB, PredClass.LOCAL, PredClass.SPECIAL)


class Scope:
    """A lexical scope: module level, with one child level per procedure.

    "Declarations of local relations 'hide' the declarations of other
    predicates with which they unify" (paper Section 4), hence the parent
    chain with innermost-first lookup.
    """

    __slots__ = ("module", "parent", "strict", "_table")

    def __init__(self, module: Optional[str] = None, parent: Optional["Scope"] = None,
                 strict: bool = False) -> None:
        self.module = module
        self.parent = parent
        self.strict = strict
        self._table: Dict[Skeleton, PredInfo] = {}

    def declare(self, info: PredInfo, allow_override: bool = False) -> PredInfo:
        existing = self._table.get(info.skeleton)
        if existing is not None and not allow_override and existing != info:
            raise ScopeError(
                f"conflicting declarations for {info.display or info.skeleton}: "
                f"{existing.klass.name} vs {info.klass.name}"
            )
        self._table[info.skeleton] = info
        return info

    def lookup(self, skeleton: Skeleton) -> Optional[PredInfo]:
        scope: Optional[Scope] = self
        while scope is not None:
            info = scope._table.get(skeleton)
            if info is not None:
                return info
            scope = scope.parent
        return None

    def resolve(self, pred: Term, arity: int) -> Optional[PredInfo]:
        """Resolve a (possibly compound) predicate name to its PredInfo.

        Returns ``None`` for predicate variables (the caller narrows by
        arity with :meth:`candidates`) and, in lenient mode, for undeclared
        names (which become implicit EDB relations).  Raises in strict mode
        for undeclared names.
        """
        skeleton = pred_skeleton(pred, arity)
        if skeleton[0] is None:
            return None
        info = self.lookup(skeleton)
        if info is not None:
            return info
        if self.strict:
            raise ScopeError(f"undeclared predicate {pred}/{arity} (strict mode)")
        return None

    def candidates(self, arity: int) -> List[PredInfo]:
        """All visible predicates of the given arity -- the compile-time
        candidate set for a predicate-variable subgoal (paper Section 5.1:
        "the scoping rules ... give the compiler a list of the predicates
        which a subgoal variable could possibly match")."""
        seen: Dict[Skeleton, PredInfo] = {}
        scope: Optional[Scope] = self
        while scope is not None:
            for skeleton, info in scope._table.items():
                if info.arity == arity and skeleton not in seen:
                    seen[skeleton] = info
            scope = scope.parent
        return sorted(seen.values(), key=lambda i: str(i.skeleton))

    def child(self, module: Optional[str] = None) -> "Scope":
        return Scope(module=module or self.module, parent=self, strict=self.strict)
