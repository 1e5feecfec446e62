"""Unit tests for the lexer."""

import pytest

from repro.lang.lexer import LexError, tokenize
from repro.lang.tokens import TokenKind


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop EOF


def values(text):
    return [t.value for t in tokenize(text)][:-1]


class TestBasics:
    def test_names_and_vars(self):
        tokens = tokenize("foo Bar _baz")
        assert tokens[0].kind is TokenKind.NAME
        assert tokens[1].kind is TokenKind.VARIABLE
        assert tokens[2].kind is TokenKind.VARIABLE

    def test_numbers(self):
        assert values("42 1.5 2e3 1.5e-2") == [42, 1.5, 2000.0, 0.015]

    def test_int_followed_by_statement_dot(self):
        # "p(2)." -- the dot terminates the statement, not a float.
        assert values("2.") == [2, "."]

    def test_float_literal(self):
        assert values("1.0") == [1.0]

    def test_quoted_atom(self):
        assert values("'hello world'") == ["hello world"]

    def test_quoted_atom_escapes(self):
        assert values(r"'it\'s a \\ test\n'") == ["it's a \\ test\n"]

    def test_unterminated_quote(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_quote_across_newline_rejected(self):
        with pytest.raises(LexError):
            tokenize("'line\nbreak'")

    def test_operators_longest_match(self):
        assert values(":= += -= :- != <= >= ++ --") == [
            ":=", "+=", "-=", ":-", "!=", "<=", ">=", "++", "--",
        ]

    def test_line_comment(self):
        assert values("a % comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* multi\nline */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    def test_non_decimal_digits_are_lex_errors(self):
        # '²' passes str.isdigit but int() refuses it.
        for text in ("²", "1²", "p(X²) :- ²."):
            with pytest.raises(LexError):
                tokenize(text)

    def test_a_literal_too_long_for_int_is_a_lex_error(self):
        text = "1" * 5000
        try:
            expected = [int(text)]
        except ValueError:  # the interpreter's limit on digits converted
            with pytest.raises(LexError, match="too long"):
                tokenize(text)
        else:
            assert values(text) == expected

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_eof_token(self):
        assert tokenize("")[-1].kind is TokenKind.EOF

    def test_identifier_with_digits_and_underscores(self):
        assert values("tc_e x1 Max_T") == ["tc_e", "x1", "Max_T"]


class TestQuotedKeywords:
    def test_quoted_atom_flagged(self):
        from repro.lang.lexer import tokenize

        token = tokenize("'proc'")[0]
        assert token.quoted and token.value == "proc"
        assert not token.is_name("proc")

    def test_unquoted_keyword_matches(self):
        from repro.lang.lexer import tokenize

        assert tokenize("proc")[0].is_name("proc")

    def test_reserved_names_sync_with_printer(self):
        # terms/printer.py duplicates the reserved-name set (terms/ cannot
        # import lang/); this guards the duplication.
        from repro.lang.tokens import AGGREGATE_OPS, BUILTIN_FUNCTIONS, KEYWORDS
        from repro.terms.printer import _RESERVED_NAMES

        expected = set(KEYWORDS) | set(AGGREGATE_OPS) | set(BUILTIN_FUNCTIONS) | {"mod"}
        assert _RESERVED_NAMES == frozenset(expected)
