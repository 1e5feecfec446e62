"""Core term classes: Atom, Num, Var, Compound.

All terms are immutable and hashable so they can be stored directly in the
hash-based relation storage.  A total, deterministic ordering over ground
terms is provided by :func:`sort_key` so relation dumps and benchmark output
are reproducible run-to-run.

Ground atoms and numbers are native values: an :class:`Atom` is a ``str``
and a :class:`Num` an ``int`` or a ``float``, so joins, sets and index
probes hash and compare them in C.  Equality is the C one, so
``Atom("a") == "a"`` and ``Num(2) == 2``, with equal hashes: never key one
dict or set by both raw Python values and terms.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.record import Record


class Term:
    """Base class for all Glue-Nail terms."""

    __slots__ = ()

    @property
    def is_ground(self) -> bool:
        return is_ground(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.terms.printer import term_to_str

        return f"<{type(self).__name__} {term_to_str(self)}>"

    def __str__(self) -> str:
        from repro.terms.printer import term_to_str

        return term_to_str(self)


class Atom(Term, str):
    """An atom.  Atoms and strings are the same data type (paper Section 2),
    so an atom *is* a ``str``: it hashes and compares in C, and
    ``Atom("a") == "a"`` with equal hashes.  ``str(atom)`` is still the
    printer's quoted text; ``.name`` is the plain text as an exact ``str``.

    The empty atom ``Atom("")`` is legal: it is the empty string.
    """

    __slots__ = ()

    def __new__(cls, name):
        if type(name) is cls:
            return name
        if not isinstance(name, str):
            raise TypeError(f"Atom name must be str, got {type(name).__name__}")
        # str.__str__, not str(): str() of an atom is the printer's text.
        return str.__new__(cls, str.__str__(name))

    name = property(str.__str__)

    def __repr__(self) -> str:
        return f"Atom(name={str.__repr__(self)})"

    def __reduce__(self):
        # Pickle protocols 0 and 1 would otherwise save str(self).
        return (type(self), (self.name,))


# Every integer of at most this magnitude is exactly a float.
_EXACT_INTS = 2**53


class Num(Term):
    """A number (integer or float).

    ``Num(v)`` returns an instance of a private ``int`` or ``float``
    subclass, so numbers hash and compare in C: ``Num(2) == Num(2.0) == 2``
    with equal hashes.  ``.value`` is the exact ``int`` or ``float``.
    An integral float within +-2**53 (where every integer is exact) is
    stored as the ``int``: ``Num(2.0).value`` is ``2`` and ``Num(-0.0)``
    is ``Num(0)``.
    """

    __slots__ = ()

    def __new__(cls, value):
        if isinstance(value, Num):
            return value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"Num value must be int or float, got {type(value).__name__}")
        if isinstance(value, int):
            return int.__new__(_IntNum, value)
        if value != value:
            # NaN equals nothing, itself included, so no relation could
            # find it again; it also has no literal to survive a restart.
            raise ValueError("NaN is not a Glue-Nail number")
        if value.is_integer() and -_EXACT_INTS <= value <= _EXACT_INTS:
            # One representative per number: 2.0 is stored as 2, so what a
            # relation holds does not depend on which arrived first.
            return int.__new__(_IntNum, int(value))
        return float.__new__(_FloatNum, value)

    def __repr__(self) -> str:
        return f"Num(value={self.value!r})"


class _IntNum(Num, int):
    __slots__ = ()
    value = property(int.__int__)


class _FloatNum(Num, float):
    __slots__ = ()
    value = property(float.__float__)


# The exact classes of ground atoms and numbers: a value of one of these
# types needs no groundness walk and lowers to JSON as itself.
SCALAR_TYPES = frozenset({Atom, _IntNum, _FloatNum})


class Var(Record, Term):
    """A logic variable.  Named ``_`` variables are anonymous (each use is
    distinct; the parser renames them apart)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name:
            raise TypeError("Var name must be a non-empty string")
        object.__setattr__(self, "name", name)

    def __hash__(self) -> int:
        return hash(self.name)

    @property
    def is_anonymous(self) -> bool:
        return self.name.startswith("_")


class Compound(Record, Term, uncompared=("_hash",)):
    """A compound term.  HiLog-style: the functor may be any term, so
    ``students(cs99)`` is a legal *predicate name* and ``E(X, Y)`` (variable
    functor) is a legal subgoal pattern."""

    __slots__ = ("functor", "args", "_hash")

    def __init__(self, functor: Term, args: tuple) -> None:
        if not isinstance(functor, Term):
            raise TypeError("Compound functor must be a Term")
        if not isinstance(args, tuple) or not args:
            raise TypeError("Compound args must be a non-empty tuple of Terms")
        for arg in args:
            if not isinstance(arg, Term):
                raise TypeError("Compound args must all be Terms")
        object.__setattr__(self, "functor", functor)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_hash", hash((functor, args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # str hashes are salted per process: rebuild the hash on unpickling.
        return (Compound, (self.functor, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)


_FRESH_COUNTER = itertools.count()


def fresh_var(prefix: str = "Gen") -> Var:
    """Return a variable guaranteed distinct from any user-written variable.

    User variables never contain ``#``, so the generated names cannot clash.
    """
    return Var(f"{prefix}#{next(_FRESH_COUNTER)}")


def mk(value: object) -> Term:
    """Convenience constructor: lift a Python value to a Term.

    Strings become atoms, ints/floats become numbers, tuples/lists become
    left-to-right compound terms ``(functor, arg, ...)``, and Terms pass
    through unchanged.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str):
        return Atom(value)
    if isinstance(value, bool):
        raise TypeError("bool is not a Glue-Nail value; use Atom('true')/Atom('false')")
    if isinstance(value, (int, float)):
        return Num(value)
    if isinstance(value, (tuple, list)):
        if len(value) < 2:
            raise TypeError("compound construction needs a functor and at least one arg")
        functor, *args = value
        return Compound(mk(functor), tuple(mk(a) for a in args))
    raise TypeError(f"cannot lift {type(value).__name__} to a Term")


def variables(term: Term) -> Iterator[Var]:
    """Yield each variable occurrence in ``term``, left to right, duplicates
    included (callers dedupe when they need a set)."""
    stack = [term]
    # An explicit stack keeps deep compound terms from hitting recursion limits.
    out: list[Var] = []
    while stack:
        current = stack.pop()
        if isinstance(current, Var):
            out.append(current)
        elif isinstance(current, Compound):
            stack.append(current.functor)
            stack.extend(current.args)
    # The stack visits right-to-left; reverse to restore source order.
    return iter(reversed(out))


def is_ground(term: Term) -> bool:
    """True when the term contains no variables."""
    stack = [term]
    while stack:
        current = stack.pop()
        if isinstance(current, Var):
            return False
        if isinstance(current, Compound):
            stack.append(current.functor)
            stack.extend(current.args)
    return True


# Kind ranks give a total order across heterogeneous terms: numbers sort
# before atoms, atoms before compounds; variables sort last (they only occur
# in program text, never in stored data).
_RANK_NUM = 0
_RANK_ATOM = 1
_RANK_COMPOUND = 2
_RANK_VAR = 3


def sort_key(term: Term) -> tuple:
    """A deterministic total-order key, consistent with term equality.

    Mixed int/float values compare numerically; ``Num(2)`` and ``Num(2.0)``
    are *equal* terms (same hash, same key), so a relation can only ever
    hold one of them.
    """
    if isinstance(term, Num):
        return (_RANK_NUM, term)
    if isinstance(term, Atom):
        return (_RANK_ATOM, term)
    if isinstance(term, Compound):
        return (
            _RANK_COMPOUND,
            len(term.args),
            sort_key(term.functor),
            tuple(sort_key(a) for a in term.args),
        )
    if isinstance(term, Var):
        return (_RANK_VAR, term.name)
    raise TypeError(f"not a Term: {term!r}")
