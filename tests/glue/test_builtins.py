"""Unit tests for builtin functions, comparison, arithmetic and I/O procs."""

import io

import pytest

from repro.errors import GlueRuntimeError
from repro.glue.builtins import (
    BUILTIN_PROCS,
    compare_terms,
    eval_function,
    term_arith,
)
from repro.terms.term import Atom, Compound, Num


class TestArith:
    def test_basic_ops(self):
        assert term_arith("+", Num(2), Num(3)) == Num(5)
        assert term_arith("-", Num(2), Num(3)) == Num(-1)
        assert term_arith("*", Num(2), Num(3)) == Num(6)

    def test_division_exact_stays_int(self):
        assert term_arith("/", Num(6), Num(3)) == Num(2)
        assert isinstance(term_arith("/", Num(6), Num(3)).value, int)

    def test_division_inexact_is_float(self):
        assert term_arith("/", Num(7), Num(2)) == Num(3.5)

    def test_division_by_zero(self):
        with pytest.raises(GlueRuntimeError):
            term_arith("/", Num(1), Num(0))

    def test_mod(self):
        assert term_arith("mod", Num(7), Num(3)) == Num(1)
        with pytest.raises(GlueRuntimeError):
            term_arith("mod", Num(7), Num(0))

    def test_non_numeric_rejected(self):
        with pytest.raises(GlueRuntimeError):
            term_arith("+", Atom("a"), Num(1))

    @pytest.mark.parametrize("op, left, right", [
        ("-", float("inf"), float("inf")),
        ("+", float("inf"), float("-inf")),
        ("*", float("inf"), 0),
        ("*", 0, float("-inf")),
        ("/", float("inf"), float("inf")),
        ("mod", float("inf"), 2),
    ])
    def test_nan_result_is_an_error(self, op, left, right):
        # NaN is no value: it equals nothing, so no relation could hold it.
        with pytest.raises(GlueRuntimeError, match="NaN"):
            term_arith(op, Num(left), Num(right))

    def test_infinity_is_a_value(self):
        assert term_arith("+", Num(float("inf")), Num(1)) == Num(float("inf"))
        assert term_arith("*", Num(float("-inf")), Num(2)) == Num(float("-inf"))


class TestCompare:
    def test_equality_structural(self):
        t = Compound(Atom("f"), (Num(1),))
        assert compare_terms("=", t, Compound(Atom("f"), (Num(1),)))
        assert compare_terms("!=", t, Atom("f"))

    def test_numeric_order(self):
        assert compare_terms("<", Num(1), Num(2))
        assert compare_terms(">=", Num(2.0), Num(2))

    def test_atom_lexicographic(self):
        assert compare_terms("<", Atom("apple"), Atom("banana"))

    def test_mixed_types_total_order(self):
        # Numbers sort before atoms in the canonical order.
        assert compare_terms("<", Num(10**9), Atom("a"))
        assert not compare_terms("<", Atom("a"), Num(10**9))

    def test_unknown_op(self):
        with pytest.raises(GlueRuntimeError):
            compare_terms("~", Num(1), Num(2))


class TestFunctions:
    def test_concat(self):
        assert eval_function("concat", (Atom("ab"), Atom("cd"))) == Atom("abcd")

    def test_concat_many(self):
        assert eval_function("concat", (Atom("a"), Atom("b"), Atom("c"))) == Atom("abc")

    def test_length(self):
        assert eval_function("length", (Atom("hello"),)) == Num(5)

    def test_substring_one_based(self):
        assert eval_function("substring", (Atom("hello"), Num(2), Num(3))) == Atom("ell")

    def test_substring_bad_args(self):
        with pytest.raises(GlueRuntimeError):
            eval_function("substring", (Atom("x"), Num(0), Num(1)))

    def test_abs(self):
        assert eval_function("abs", (Num(-3),)) == Num(3)

    def test_to_string_number(self):
        assert eval_function("to_string", (Num(42),)) == Atom("42")

    def test_to_number(self):
        assert eval_function("to_number", (Atom("42"),)) == Num(42)
        assert eval_function("to_number", (Atom("2.5"),)) == Num(2.5)

    def test_to_number_bad(self):
        with pytest.raises(GlueRuntimeError):
            eval_function("to_number", (Atom("nope"),))

    def test_unknown_function(self):
        with pytest.raises(GlueRuntimeError):
            eval_function("frobnicate", (Num(1),))

    def test_arity_checked(self):
        with pytest.raises(GlueRuntimeError):
            eval_function("length", (Atom("a"), Atom("b")))


class _Ctx:
    def __init__(self, inp=""):
        self.out = io.StringIO()
        self.inp = io.StringIO(inp)


class TestIoProcs:
    def test_write_is_fixed(self):
        assert BUILTIN_PROCS[("write", 1)].fixed

    def test_write_set_at_a_time(self):
        # Called once on all bindings; output sorted for determinism.
        ctx = _Ctx()
        rows = [(Atom("b"),), (Atom("a"),)]
        result = BUILTIN_PROCS[("write", 1)].fn(ctx, rows)
        assert ctx.out.getvalue() == "ab"
        assert result == rows  # acts as identity, not a filter

    def test_writeln(self):
        ctx = _Ctx()
        BUILTIN_PROCS[("writeln", 1)].fn(ctx, [(Num(1),)])
        assert ctx.out.getvalue() == "1\n"

    def test_write_atom_unquoted(self):
        ctx = _Ctx()
        BUILTIN_PROCS[("write", 1)].fn(ctx, [(Atom("hello world"),)])
        assert ctx.out.getvalue() == "hello world"

    def test_nl(self):
        ctx = _Ctx()
        BUILTIN_PROCS[("nl", 0)].fn(ctx, [()])
        assert ctx.out.getvalue() == "\n"

    def test_read_line(self):
        ctx = _Ctx("typed input\nnext")
        result = BUILTIN_PROCS[("read_line", 1)].fn(ctx, [()])
        assert result == [(Atom("typed input"),)]
