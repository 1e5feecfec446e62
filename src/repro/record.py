"""Immutable value classes without generated code.

A :class:`Record` subclass names its fields in ``__slots__`` and writes
its own ``__init__``, storing each field with ``object.__setattr__``.
The base supplies, once for every subclass, what a frozen dataclass
would generate by ``exec`` at each import:

* ``==`` over the fields, true only between instances of the same class;
* ``hash`` equal to ``hash((f1, ..., fn))`` of the same fields;
* ``repr`` as ``Name(f1=..., f2=...)`` over the same fields;
* refusal of attribute assignment and deletion after ``__init__``.

The fields are the names in ``__slots__`` (a base's before a
subclass's), less those named in the class keyword ``uncompared``: a
source line or a cache that is not part of the value.
``__init_subclass__`` reads them once into an
:func:`operator.attrgetter`.

A leaf module: it imports only the standard library.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of the immutable value classes (see the module docstring)."""

    __slots__ = ()

    def __init_subclass__(cls, uncompared: tuple = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(
            name for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ()) if name not in uncompared
        )
        # With one field, attrgetter returns the bare value, not a 1-tuple.
        cls._get = attrgetter(*fields)

    def _values(self) -> tuple:
        values = self._get(self)
        return values if len(self._fields) > 1 else (values,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == self._get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")
