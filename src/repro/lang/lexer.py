"""Lexer for the Glue-Nail surface language: one compiled master regex.

Comment syntax: ``%`` to end of line (the Prolog tradition the paper's
examples follow) and ``/* ... */`` block comments.

``tokenize`` walks ``_TOKEN.finditer`` over the text, one match per
token or run of layout, and dispatches on the name of the alternative
that matched (the standard Python tokenizer idiom).  Line and column
come from newline offsets: only layout and quoted atoms can hold a
newline, so the line moves only after those.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import CompileError
from repro.lang.tokens import Token, TokenKind


class LexError(CompileError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


# Alternatives in priority order.  A block comment is tried before the
# ``/`` operator, a number before a word; operators are longest first.
# ``\d`` and ``\w`` are Unicode-aware, like ``str.isdecimal`` and
# ``str.isalnum``; a word's first character decides NAME or VARIABLE.
_TOKEN = re.compile(r"""
    (?P<SKIP>[ \t\r\n]+ | %[^\n]* | /\*(?s:.*?)\*/)
  | (?P<QUOTED>'[^'\\\n]*(?:\\(?s:.)[^'\\\n]*)*')
  | (?P<NUMBER>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<WORD>\w+)
  | (?P<UNCLOSED>/\*|')
  | (?P<PUNCT>:= | \+= | -= | :- | != | <= | >= | \+\+ | --
             | [(),.;:&|!{}\[\]=<>+\-*/?])
  | (?P<ERROR>(?s:.))
""", re.VERBOSE)

NAME, VARIABLE, NUMBER, PUNCT, EOF = (TokenKind.NAME, TokenKind.VARIABLE, TokenKind.NUMBER,
                                     TokenKind.PUNCT, TokenKind.EOF)
# ``tuple.__new__`` with all five fields in order builds a Token without
# the frame of its keyword-argument ``__new__``.
_new = tuple.__new__

_ESCAPE = re.compile(r"\\(?s:(.))")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


def _unescape(match: re.Match) -> str:
    char = match.group(1)
    return _ESCAPES.get(char, char)


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`LexError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        value = match.group()
        start = match.start()
        column = start - line_start + 1
        if kind == "PUNCT":
            append(_new(Token, (PUNCT, value, line, column, False)))
        elif kind == "WORD":
            first = value[0]
            if first.isalpha() and first.islower():
                append(_new(Token, (NAME, value, line, column, False)))
            elif first == "_" or (first.isalpha() and first.isupper()):
                append(_new(Token, (VARIABLE, value, line, column, False)))
            else:
                raise LexError(f"unexpected character {first!r}", line, column)
        elif kind == "SKIP":
            pass
        elif kind == "NUMBER":
            try:
                number = int(value) if value.isdecimal() else float(value)
            except ValueError:  # more digits than ``int`` converts
                raise LexError(f"number too long: {value[:20]}...", line, column) from None
            append(_new(Token, (NUMBER, number, line, column, False)))
        elif kind == "QUOTED":
            atom = _ESCAPE.sub(_unescape, value[1:-1]) if "\\" in value else value[1:-1]
            append(_new(Token, (NAME, atom, line, column, True)))
        elif kind == "UNCLOSED":
            what = "block comment" if value == "/*" else "quoted atom"
            raise LexError(f"unterminated {what}", line, column)
        else:
            raise LexError(f"unexpected character {value!r}", line, column)
        if "\n" in value:  # layout, or a quoted atom with an escaped newline
            line += value.count("\n")
            line_start = start + value.rindex("\n") + 1
    append(Token(EOF, None, line, len(text) - line_start + 1))
    return tokens
