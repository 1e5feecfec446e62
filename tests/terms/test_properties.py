"""Property-based tests over the term model (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.parser import parse_term
from repro.terms.matching import match, substitute
from repro.terms.printer import term_to_str
from repro.terms.term import Compound, Num, Term, Var, is_ground, sort_key
from tests.conftest import ground_terms


@given(ground_terms)
def test_printer_parser_roundtrip(term):
    """parse(print(t)) == t for every ground term."""
    assert parse_term(term_to_str(term)) == term


def test_infinities_print_as_numbers():
    for value in (float("inf"), float("-inf")):
        assert parse_term(term_to_str(Num(value))) == Num(value)


@given(ground_terms)
def test_ground_terms_are_ground(term):
    assert is_ground(term)


@given(ground_terms)
def test_match_reflexive(term):
    """A ground term matches itself with the empty bindings."""
    assert match(term, term) == {}


@given(ground_terms, ground_terms)
def test_match_iff_equal_for_ground(left, right):
    """Ground-vs-ground matching is exactly equality."""
    result = match(left, right)
    assert (result is not None) == (left == right)


@given(ground_terms)
def test_substitute_then_match_roundtrip(ground):
    """Replacing a subterm with a variable and matching recovers it."""
    pattern = Compound(ground, (Var("X"),)) if not isinstance(ground, Var) else ground
    target = Compound(ground, (ground,))
    bindings = match(pattern, target)
    assert bindings == {"X": ground}
    assert substitute(pattern, bindings) == target


@given(st.lists(ground_terms, min_size=0, max_size=20))
def test_sort_key_total_and_deterministic(terms):
    """Sorting is stable across runs and consistent with equality."""
    once = sorted(terms, key=sort_key)
    twice = sorted(list(reversed(terms)), key=sort_key)
    assert once == twice
    for a, b in zip(once, once[1:]):
        assert sort_key(a) <= sort_key(b)


@given(ground_terms, ground_terms)
def test_sort_key_consistent_with_equality(a, b):
    if a == b:
        assert sort_key(a) == sort_key(b)


@given(ground_terms)
def test_hashable_and_stable(term):
    assert hash(term) == hash(term)
    assert term in {term}
