"""Rendering terms back to Glue-Nail surface syntax.

The printer and the parser are inverses: ``parse_term(term_to_str(t)) == t``
for every ground term, a property the test suite checks with hypothesis.
"""

from __future__ import annotations

import math
import re
from typing import Iterable

from repro.terms.term import Atom, Compound, Num, Term, Var

_IDENTIFIER = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

# Names with contextual meaning in the grammar.  Printing them quoted keeps
# the parse/print round trip exact; the parser treats quoted atoms as plain
# names.  Kept in sync with repro.lang.tokens (checked by a test; duplicated
# here because terms/ must not import lang/).
_RESERVED_NAMES = frozenset(
    {
        # keywords
        "module", "export", "import", "from", "edb", "proc", "procedure",
        "rels", "repeat", "until", "end", "watch",
        # aggregate operators
        "min", "max", "mean", "sum", "product", "arbitrary", "std_dev", "count",
        # builtin functions and the infix operator name
        "concat", "length", "substring", "abs", "mod", "to_string", "to_number",
    }
)


def _quote_atom(name: str) -> str:
    """Quote an atom unless it is a plain, non-reserved identifier."""
    if _IDENTIFIER.match(name) and name not in _RESERVED_NAMES:
        return name
    escaped = (
        name.replace("\\", "\\\\")
        .replace("'", "\\'")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    return f"'{escaped}'"


def term_to_str(term: Term) -> str:
    if isinstance(term, Atom):
        return _quote_atom(term.name)
    if isinstance(term, Num):
        value = term.value
        if isinstance(value, float):
            if math.isinf(value):
                # repr() says "inf", which would read back as an atom; a
                # literal past the float range reads back as infinity.
                return "1e999" if value > 0 else "-1e999"
            return repr(value)
        return str(value)
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Compound):
        functor = term_to_str(term.functor)
        # A compound functor (HiLog set name like students(cs99)) prints
        # naturally as application: students(cs99)(wilson).
        args = ", ".join(term_to_str(a) for a in term.args)
        return f"{functor}({args})"
    raise TypeError(f"not a Term: {term!r}")


def tuple_to_str(values: Iterable[Term]) -> str:
    return "(" + ", ".join(term_to_str(v) for v in values) + ")"
