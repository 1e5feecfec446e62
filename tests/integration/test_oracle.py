"""Tests of the sqlite3 reference semantics itself (``tests.oracle``).

An oracle that agreed with everything, or skipped everything, would
check nothing: a wrong product answer must fail the comparison, programs
outside the fragment must be counted as skipped, and the random programs
must be skipped rarely.  The remaining tests pin rows of the oracle's
written tables (canonical numbers, mixed ordering, NaN) against the
product.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from repro.lang.parser import parse_term
from tests.differential import (
    FAILED,
    TALLY,
    agree,
    glue_program,
    nail_program,
    oracle_rows,
    product_rows,
    random_facts,
)
from tests.oracle.evaluator import Outside, _product, num_text

CLOSURE = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
lonely(X) :- node(X) & !path(X, _).
"""
CLOSURE_FACTS = {"edge": [(1, 2), (2, 3), (3, 1), (4, 5)], "node": [(1,), (5,), (6,)]}


def test_a_wrong_product_answer_fails_the_comparison():
    assert agree(CLOSURE, CLOSURE_FACTS)

    def drops_a_row(source, facts, preds):
        rows = product_rows(source, facts, preds)
        return {key: found[1:] for key, found in rows.items()}

    def adds_a_row(source, facts, preds):
        rows = product_rows(source, facts, preds)
        return {key: found + [("0",) * key[1]] for key, found in rows.items()}

    def fails(source, facts, preds):
        return FAILED

    for wrong in (drops_a_row, adds_a_row, fails):
        with pytest.raises(AssertionError, match="disagree"):
            agree(CLOSURE, CLOSURE_FACTS, product=wrong)


@pytest.mark.parametrize("source", [
    "m(K, V) +=[K] d(K, V).",
    "proc f(:X) f_out(X) := d(X, _). return(:X) := f_out(X). end",
    "out(X) := { d(X, _) | d(_, X) }.",
    "out(Y) := d(X, _) & Y = concat(X, X).",
    "out(N) :- d(X, _) & N = arbitrary(X).",
    "out(X) :- d(X, Y) & !out(Y).",
])
def test_programs_outside_the_fragment_are_skipped_and_counted(source):
    before = TALLY["skipped"]
    assert agree(source, {"d": [("a", "b")]}, [("out", 1)]) is None
    assert TALLY["skipped"] == before + 1
    with pytest.raises(Outside):
        oracle_rows(source, {"d": [("a", "b")]}, [("out", 1)])


def test_at_most_a_tenth_of_the_drawn_examples_is_skipped():
    """A fixed sweep of both generators, each example compared with the
    product: at least 200 examples run, and at most 10 % are skipped."""
    tally = Counter()
    for seed in range(100):
        for generate in (nail_program, glue_program):
            rng = random.Random(seed)
            source = generate(rng.randint)
            tally[agree(source, random_facts(rng.randint)) is None] += 1
    assert sum(tally.values()) >= 200
    assert tally[True] <= sum(tally.values()) / 10, tally


def test_two_and_two_point_zero_are_one_value():
    rows = agree(
        "both(X) :- a(X) & b(X).\nhalf(Y) :- a(X) & Y = X / 4.",
        {"a": [(2.0,), (3,)], "b": [(2,)]},
    )
    assert rows == {("both", 1): [("2",)], ("half", 1): [("0.5",), ("0.75",)]}


def test_mixed_ordering_and_extremes():
    # Numbers before atoms, atoms by name (quoted ones too), min/max by
    # the same order.
    rows = agree(
        "lt(X, Y) :- v(X) & v(Y) & X < Y.\n"
        "lo(M) :- v(X) & M = min(X).\nhi(M) :- v(X) & M = max(X).",
        {"v": [(3,), (-1.5,), ("b",), ("a b",), ("it's",)]},
    )
    assert len(rows[("lt", 2)]) == 10
    assert rows[("lo", 1)] == [("-1.5",)] and rows[("hi", 1)] == [("'it\\'s'",)]


@pytest.mark.parametrize("source", [
    "out(Z) :- a(X) & Z = X - X.",
    "out(Z) := a(X) & Z = X * 0.",
    "out(S) :- a(X) & S = sum(X).",
])
def test_nan_is_an_error_in_both(source):
    # inf - inf, inf * 0 and inf + -inf have no numeric value.
    assert agree(source, {"a": [(float("inf"),), (float("-inf"),)]}) == FAILED


def test_integer_product_does_not_depend_on_the_stored_representative():
    agree("p(N) :- v(X) & N = product(X).", {"v": [(2.0,)] + [(3 + i,) for i in range(40)]})


def test_float_product_does_not_depend_on_the_binding_order():
    # Drawn by the random NAIL! generator: left to right in the order each
    # side met the bindings, the two ended one ulp apart.
    agree(
        "d1(N) :- e1(Y, X) & W = X / 3 & N = product(W).",
        {"e1": [(-1, -2), (2, 5), (-1, 5), (-2, 2), (2, 4), (-2, 4), (0, 2), (0, -2),
                (3, 2), (5, 5), (3, -1)]},
    )


@pytest.mark.parametrize("values,answer", [
    ((float("inf"), 1e-300, 1e-300), "1e999"),
    ((float("-inf"), 1e-300, 3), "-1e999"),
    ((float("inf"), 0.0, 1e-300), FAILED),
])
def test_product_with_an_infinite_factor_does_not_depend_on_the_order(values, answer):
    # A running product in the order 1e-300, 1e-300, inf underflows to 0.0
    # and ends NaN; the other orders end at inf.
    for order in itertools.permutations(values):
        assert math.isnan(_product(order)) if answer is FAILED else (
            num_text(_product(order)) == answer)
        facts = {"v": [(i, value) for i, value in enumerate(order)]}
        rows = agree("p(N) :- v(I, X) & N = product(X).", facts)
        assert rows == FAILED if answer is FAILED else rows[("p", 1)] == [(answer,)]


def test_hilog_names_read_derived_relations():
    # P ranges over every name, NAIL! predicates (h itself) included.
    rows = agree(
        "d(X, Y) :- e(Y, X).\nh(X, Y) :- names(P) & P(X, Y).\nh(X, Z) :- h(X, Y) & e(Y, Z).",
        {"names": [("d",), ("h",)], "e": [(1, 2), (2, 3)]},
        [("h", 2)],
    )
    assert rows[("h", 2)] == [("2", "1"), ("2", "2"), ("2", "3"), ("3", "2"), ("3", "3")]


def test_compound_names_join_as_text():
    source = "tc(G)(X, Y) :- e(G, X, Y).\ntc(G)(X, Z) :- tc(G)(X, Y) & e(G, Y, Z)."
    facts = {"e": [("g0", 1, 2), ("g0", 2, 3), ("g1", 5, 6)]}
    rows = agree(source, facts, [(parse_term("tc(g0)"), 2)])
    assert rows[(parse_term("tc(g0)"), 2)] == [("1", "2"), ("1", "3"), ("2", "3")]
