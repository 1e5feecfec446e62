"""Token definitions for the Glue-Nail lexer."""

from __future__ import annotations

from enum import Enum, auto

from repro.record import Record


class TokenKind(Enum):
    NAME = auto()       # lower-case identifier or quoted atom
    VARIABLE = auto()   # upper-case or underscore identifier
    NUMBER = auto()     # int or float literal
    PUNCT = auto()      # one of the punctuation / operator strings
    EOF = auto()


# Multi-character operators, longest first so the lexer matches greedily.
OPERATORS = (
    ":=",
    "+=",
    "-=",
    ":-",
    "!=",
    "<=",
    ">=",
    "++",
    "--",
    "(",
    ")",
    ",",
    ".",
    ";",
    ":",
    "&",
    "|",
    "!",
    "{",
    "}",
    "[",
    "]",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "?",
)

# Structural keywords.  They are *contextual*: the parser recognises them by
# value at statement positions, so user predicates may still reuse the names
# where no ambiguity arises (e.g. a relation called ``in``).
KEYWORDS = frozenset(
    {
        "module",
        "export",
        "import",
        "from",
        "edb",
        "proc",
        "procedure",
        "rels",
        "repeat",
        "until",
        "end",
        "watch",
    }
)

# Aggregate operators (paper Section 3.3).
AGGREGATE_OPS = frozenset(
    {"min", "max", "mean", "sum", "product", "arbitrary", "std_dev", "count"}
)

# Built-in functions usable inside expressions (paper Section 2: string
# concatenation, length and substring are built in; arithmetic helpers are
# the obvious complements).
BUILTIN_FUNCTIONS = frozenset(
    {"concat", "length", "substring", "abs", "mod", "to_string", "to_number"}
)


class Token(Record):
    __slots__ = ("kind", "value", "line", "column", "quoted")

    def __init__(self, kind: TokenKind, value: object, line: int, column: int,
                 quoted: bool = False) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)
        object.__setattr__(self, "quoted", quoted)  # a quoted atom never acts as a keyword/function

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.value == text

    def is_name(self, text: str) -> bool:
        """Keyword test: quoted atoms never behave as keywords."""
        return self.kind is TokenKind.NAME and self.value == text and not self.quoted

    def describe(self) -> str:
        if self.kind is TokenKind.EOF:
            return "end of input"
        return repr(self.value)
