"""Shared fixtures and hypothesis strategies for the Glue-Nail test suite."""

from __future__ import annotations

import os
import sys

# Make the suite runnable without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest
from hypothesis import strategies as st

from repro.storage.database import Database
from repro.terms.term import Atom, Compound, Num, Term


# --------------------------------------------------------------------- #
# hypothesis strategies for ground terms
# --------------------------------------------------------------------- #

atoms = st.one_of(
    st.sampled_from(["a", "b", "c", "foo", "bar", "x1", "hello world", "it's"]),
    st.text(min_size=0, max_size=6).map(lambda s: s.replace("\n", " ")),
).map(Atom)

numbers = st.one_of(
    st.integers(min_value=-1_000_000, max_value=1_000_000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
).map(Num)


def _compounds(children):
    return st.builds(
        Compound,
        functor=st.one_of(atoms, children),
        args=st.lists(children, min_size=1, max_size=3).map(tuple),
    )


ground_terms: st.SearchStrategy[Term] = st.recursive(
    st.one_of(atoms, numbers), _compounds, max_leaves=8
)

ground_rows = st.lists(ground_terms, min_size=0, max_size=4).map(tuple)


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #


@pytest.fixture
def db() -> Database:
    return Database()


@pytest.fixture
def chain_db() -> Database:
    """A database with a 10-node chain in relation ``edge``."""
    database = Database()
    database.facts("edge", [(i, i + 1) for i in range(10)])
    return database


def make_system(source: str = "", **kwargs):
    """Build a GlueNailSystem from source (test helper).  Oracle flags such
    as ``written_order=True`` select a baseline (see
    :mod:`repro.baselines.reference`); without them it is the product."""
    from repro.baselines.reference import reference_system

    system = reference_system(**kwargs)
    if source:
        system.load(source)
    return system


def pytest_terminal_summary(terminalreporter):
    """Report how many examples the sqlite3 oracle checked in this run."""
    differential = sys.modules.get("tests.differential")
    if differential is not None and differential.TALLY:
        tally = differential.TALLY
        terminalreporter.write_line(
            f"sqlite3 oracle: {tally['agreed']} examples agreed with the product, "
            f"{tally['skipped']} skipped"
        )
