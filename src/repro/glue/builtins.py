"""Built-in scalar functions, term comparison, and built-in procedures.

Strings are first-class (paper Section 2): concatenation, length and
substring are built in.  The predefined I/O procedures (write and friends)
are all *fixed* subgoals.  Like every Glue procedure, a builtin is called
once on the whole set of input bindings, not once per tuple.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.errors import GlueRuntimeError
from repro.record import Record
from repro.terms.printer import term_to_str
from repro.terms.term import Atom, Num, Term, sort_key

Row = Tuple[Term, ...]


# --------------------------------------------------------------------- #
# arithmetic and comparison over terms
# --------------------------------------------------------------------- #


def term_arith(op: str, left: Term, right: Term) -> Term:
    """Binary arithmetic; both operands must be numbers.  A NaN result
    (``inf - inf``, ``inf * 0``) is a runtime error: NaN is no value."""
    if not isinstance(left, Num) or not isinstance(right, Num):
        raise GlueRuntimeError(f"arithmetic '{op}' needs numbers, got {left} {op} {right}")
    a, b = left.value, right.value
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    elif op == "*":
        result = a * b
    elif op == "/":
        if b == 0:
            raise GlueRuntimeError("division by zero")
        # Exact integer division stays integral so 4/2 joins with 2.
        if isinstance(a, int) and isinstance(b, int) and a % b == 0:
            return Num(a // b)
        result = a / b
    elif op == "mod":
        if b == 0:
            raise GlueRuntimeError("mod by zero")
        result = a % b
    else:
        raise GlueRuntimeError(f"unknown arithmetic operator {op}")
    if result != result:
        raise GlueRuntimeError(f"{left} {op} {right} has no numeric value (NaN)")
    return Num(result)


def compare_terms(op: str, left: Term, right: Term) -> bool:
    """Comparison subgoal semantics.

    ``=``/``!=`` are structural equality over ground terms.  Ordering
    comparisons are numeric between numbers, lexicographic between atoms,
    and fall back to the canonical term order for mixed operands so every
    comparison is total and deterministic.
    """
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if isinstance(left, Num) and isinstance(right, Num):
        a, b = left.value, right.value
    elif isinstance(left, Atom) and isinstance(right, Atom):
        a, b = left.name, right.name
    else:
        a, b = sort_key(left), sort_key(right)
    if op == "<":
        return a < b
    if op == ">":
        return a > b
    if op == "<=":
        return a <= b
    if op == ">=":
        return a >= b
    raise GlueRuntimeError(f"unknown comparison operator {op}")


# --------------------------------------------------------------------- #
# scalar builtin functions (expression position)
# --------------------------------------------------------------------- #


def _need_atom(name: str, value: Term) -> str:
    if not isinstance(value, Atom):
        raise GlueRuntimeError(f"{name} needs a string/atom, got {value}")
    return value.name


def _need_int(name: str, value: Term) -> int:
    if not isinstance(value, Num) or not isinstance(value.value, int):
        raise GlueRuntimeError(f"{name} needs an integer, got {value}")
    return value.value


def _fn_concat(args: Sequence[Term]) -> Term:
    return Atom("".join(_need_atom("concat", a) for a in args))


def _fn_length(args: Sequence[Term]) -> Term:
    (value,) = args
    return Num(len(_need_atom("length", value)))


def _fn_substring(args: Sequence[Term]) -> Term:
    """substring(S, Start, Len): 1-based start, like the SQL SUBSTRING."""
    text, start, length = args
    s = _need_atom("substring", text)
    i = _need_int("substring", start)
    n = _need_int("substring", length)
    if i < 1 or n < 0:
        raise GlueRuntimeError("substring needs start >= 1 and length >= 0")
    return Atom(s[i - 1 : i - 1 + n])


def _fn_abs(args: Sequence[Term]) -> Term:
    (value,) = args
    if not isinstance(value, Num):
        raise GlueRuntimeError(f"abs needs a number, got {value}")
    return Num(abs(value.value))


def _fn_mod(args: Sequence[Term]) -> Term:
    a, b = args
    return term_arith("mod", a, b)


def _fn_to_string(args: Sequence[Term]) -> Term:
    (value,) = args
    if isinstance(value, Atom):
        return value
    return Atom(term_to_str(value))


def _fn_to_number(args: Sequence[Term]) -> Term:
    (value,) = args
    if isinstance(value, Num):
        return value
    text = _need_atom("to_number", value)
    try:
        if any(ch in text for ch in ".eE"):
            return Num(float(text))
        return Num(int(text))
    except ValueError as exc:
        raise GlueRuntimeError(f"to_number: cannot parse {text!r}") from exc


_FUNCTIONS: Dict[str, Tuple[Callable[[Sequence[Term]], Term], int, int]] = {
    # name -> (fn, min_args, max_args)
    "concat": (_fn_concat, 2, 16),
    "length": (_fn_length, 1, 1),
    "substring": (_fn_substring, 3, 3),
    "abs": (_fn_abs, 1, 1),
    "mod": (_fn_mod, 2, 2),
    "to_string": (_fn_to_string, 1, 1),
    "to_number": (_fn_to_number, 1, 1),
}


def eval_function(name: str, args: Sequence[Term]) -> Term:
    entry = _FUNCTIONS.get(name)
    if entry is None:
        raise GlueRuntimeError(f"unknown builtin function {name}")
    fn, lo, hi = entry
    if not lo <= len(args) <= hi:
        raise GlueRuntimeError(f"{name} takes {lo}..{hi} arguments, got {len(args)}")
    return fn(args)


# --------------------------------------------------------------------- #
# builtin procedures (subgoal position)
# --------------------------------------------------------------------- #


class BuiltinProc(Record):
    """A built-in procedure callable as a subgoal.

    ``fn(ctx, rows)`` receives the execution context and the full set of
    input rows (set-at-a-time, like any Glue procedure) and returns the
    output rows (arity = ``arity``).
    """

    __slots__ = ("name", "arity", "bound_arity", "fixed", "fn")

    def __init__(self, name: str, arity: int, bound_arity: int, fixed: bool,
                 fn: Callable[[object, List[Row]], List[Row]]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "bound_arity", bound_arity)
        object.__setattr__(self, "fixed", fixed)
        object.__setattr__(self, "fn", fn)


def _write_rows(ctx, rows: List[Row], newline: bool) -> List[Row]:
    for row in sorted(rows, key=lambda r: tuple(sort_key(v) for v in r)):
        ctx.out.write(_render(row[0]))
        if newline:
            ctx.out.write("\n")
    return rows


def _render(value: Term) -> str:
    # write() prints the raw string of an atom (no quotes) -- the natural
    # behaviour for user-facing output.
    if isinstance(value, Atom):
        return value.name
    return term_to_str(value)


def _bp_write(ctx, rows: List[Row]) -> List[Row]:
    return _write_rows(ctx, rows, newline=False)


def _bp_writeln(ctx, rows: List[Row]) -> List[Row]:
    return _write_rows(ctx, rows, newline=True)


def _bp_nl(ctx, rows: List[Row]) -> List[Row]:
    ctx.out.write("\n")
    return rows


def _bp_read_line(ctx, rows: List[Row]) -> List[Row]:
    line = ctx.inp.readline()
    if line.endswith("\n"):
        line = line[:-1]
    return [(Atom(line),)]


BUILTIN_PROCS: Dict[Tuple[str, int], BuiltinProc] = {
    ("write", 1): BuiltinProc("write", 1, 1, True, _bp_write),
    ("writeln", 1): BuiltinProc("writeln", 1, 1, True, _bp_writeln),
    ("nl", 0): BuiltinProc("nl", 0, 0, True, _bp_nl),
    ("read_line", 1): BuiltinProc("read_line", 1, 0, True, _bp_read_line),
}
