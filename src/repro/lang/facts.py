"""Ground fact lines without the parser: the scanner recovery reads with.

Checkpoints and the write-ahead log hold one ground fact per line, in the
syntax :func:`repro.terms.printer.term_to_str` prints: ``name(v, ...).``
whose values are plain or quoted atoms and numbers.  :class:`FactScanner`
reads such a line with one regular expression and builds the Term of each
distinct value token once, so a fact costs a match and a dict probe per
value instead of a tokenizer pass and a recursive descent, and rows that
repeat a value share one Term object.

Every other line -- compound values, HiLog relation names, comments,
spacing the printer never writes, malformed input -- goes to
:func:`~repro.lang.parser.parse_ground_fact`.  The scanner therefore
accepts exactly the lines the parser accepts and returns equal terms; the
test suite checks this differentially.
"""

from __future__ import annotations

import re
from typing import Tuple

from repro.lang.parser import parse_ground_fact
from repro.lang.tokens import AGGREGATE_OPS, BUILTIN_FUNCTIONS
from repro.terms.term import Atom, Num, Term

_NAME = r"[a-z][A-Za-z0-9_]*"
_QUOTED = r"'(?:[^'\\]|\\.)*'"
_NUMBER = r"-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_VALUE = rf"(?:{_QUOTED}|{_NUMBER}|{_NAME})"
_GAP = r"[ \t]*"
_FACT = re.compile(
    rf"({_NAME}|{_QUOTED})\(({_GAP}(?:{_VALUE}{_GAP}(?:,{_GAP}{_VALUE}{_GAP})*)?)\){_GAP}\.?\Z"
)
_VALUES = re.compile(_VALUE)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", "t": "\t", "r": "\r"}

# Unquoted names the parser reads as a function or aggregate call when an
# opening parenthesis follows; a fact line named by one goes to the parser.
_CALLS = AGGREGATE_OPS | BUILTIN_FUNCTIONS


def _unescape(match: re.Match) -> str:
    char = match.group(1)
    return _ESCAPED.get(char, char)


def _term(token: str) -> Term:
    """The Term of one value token the fact pattern matched."""
    first = token[0]
    if first == "'":
        body = token[1:-1]
        return Atom(_ESCAPE.sub(_unescape, body) if "\\" in body else body)
    if first == "-" or first.isdigit():
        if "." in token or "e" in token or "E" in token:
            return Num(float(token))
        return Num(int(token))
    return Atom(token)


class _Terms(dict):
    """Value token -> Term, built on first sight."""

    def __missing__(self, token: str) -> Term:
        term = self[token] = _term(token)
        return term


class FactScanner:
    """Reads ground fact lines, sharing one Term per distinct value token.

    One scanner serves one load: its token table lives as long as it does.
    """

    def __init__(self):
        self._terms = _Terms()

    def scan(self, line: str) -> Tuple[Term, Tuple[Term, ...]]:
        """``(name term, ground row)`` of one fact line, as
        :func:`parse_ground_fact` returns it; raises as the parser does on a
        line that is not a ground fact."""
        matched = _FACT.match(line)
        if matched is None or matched.group(1) in _CALLS:
            return parse_ground_fact(line)
        terms = self._terms
        try:
            row = tuple(map(terms.__getitem__, _VALUES.findall(matched.group(2))))
        except ValueError:  # an integer too long for int(): the parser reports it
            return parse_ground_fact(line)
        return terms[matched.group(1)], row
