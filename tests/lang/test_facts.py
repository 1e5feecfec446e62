"""The recovery scanner reads fact lines exactly as the parser does."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.facts import FactScanner
from repro.lang.parser import ParseError, parse_ground_fact
from repro.storage.persist import fact_to_line
from repro.terms.term import Atom, Num
from tests.conftest import atoms, ground_rows, ground_terms

# Values the scanner reads itself (plain and quoted atoms, numbers of every
# sign and size, infinities) beside compounds, which go to the parser.
numbers = st.one_of(
    st.integers(),
    st.floats(allow_nan=False),
).map(Num)
flat_rows = st.lists(st.one_of(atoms, numbers), max_size=4).map(tuple)
rows = st.one_of(flat_rows, ground_rows)
names = st.one_of(atoms, st.sampled_from(["count", "mod", "watch", "true"]).map(Atom),
                  ground_terms)


def outcome(read, line):
    """``repr`` of what ``read(line)`` returns (it tells ``2`` from ``2.0``
    and ``0.0`` from ``-0.0``, which ``==`` does not), or the error type."""
    try:
        return repr(read(line))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc).__name__


@given(names, rows)
@settings(max_examples=300)
def test_printed_facts_scan_as_they_parse(name, row):
    line = fact_to_line(name, row)
    assert outcome(FactScanner().scan, line) == outcome(parse_ground_fact, line)
    assert FactScanner().scan(line) == (name, row)


# Edits drawn from the characters that decide a line's shape.
edit_chars = st.sampled_from(list("()',.%-+ \\eE_X0a\t\r\x0c\xa0é")) | st.none()
edits = st.lists(st.tuples(st.integers(0, 60), edit_chars), min_size=1, max_size=3)


@given(names, flat_rows, edits)
@settings(max_examples=500)
def test_mangled_lines_scan_as_they_parse(name, row, changes):
    """Whatever a damaged line is -- another fact, a non-ground one, noise
    -- the scanner answers what the parser answers."""
    line = fact_to_line(name, row)
    for position, char in changes:
        position %= len(line) + 1
        line = line[:position] + (char or "") + line[position + 1 if char is None else position:]
    assert outcome(FactScanner().scan, line) == outcome(parse_ground_fact, line)


@pytest.mark.parametrize("line", [
    "edge(1, 2).",
    "edge(1,2)",
    "p( a , 'b c' ,-3,1.5e-3, 2E5, 007 ) .",
    "p('it\\'s', 'tab\\there', 'nl\\n', 'cr\\r', 'back\\\\slash', '\\q').",
    "p().",
    "p( ).",
    "'count'(a).",
    "p(count, mod, watch).",
    "p(1e999, -1e999, -0.0).",
])
def test_scanned_lines(line):
    assert outcome(FactScanner().scan, line) == outcome(parse_ground_fact, line)


@pytest.mark.parametrize("line", [
    "count(a).",            # an aggregate call, not a fact
    "mod(a, b).",           # a function call
    "p(X).",                # not ground
    "p(1.).",
    "p(1_000).",
    "p(a) q(b).",
    "p(a). % note",         # the parser skips the comment
    "students(cs99)(wilson).",
    "p(f(a), -(1)).",
    "p('unterminated).",
])
def test_other_lines_go_to_the_parser(line):
    assert outcome(FactScanner().scan, line) == outcome(parse_ground_fact, line)


def test_rejects_what_the_parser_rejects():
    with pytest.raises(ParseError):
        FactScanner().scan("count(a).")
    with pytest.raises(ParseError):
        FactScanner().scan("edge(X, 2).")


def test_rows_share_one_term_per_value():
    scan = FactScanner().scan
    name, first = scan("wrote(a1, p1).")
    other, second = scan("wrote(a1, p2).")
    assert first[0] is second[0] and name is other
    assert first[1] is not second[1]
