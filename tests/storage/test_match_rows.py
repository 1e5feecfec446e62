"""The flat read path: ``Relation.match_rows`` behind ``matching_rows``.

Every pattern shape returns the same rows, in insertion order, with the
same cost charges and adaptive-ledger bookkeeping; and reading a stored
relation runs no Python frame per row.
"""

import gc
import sys

from repro.storage.relation import matching_rows
from repro.storage.adaptive import AdaptiveIndexPolicy
from repro.storage.relation import Relation
from repro.storage.stats import CostCounters
from repro.terms.term import Atom, Num, Var

X, Y, Z = Var("X"), Var("Y"), Var("Z")


def _relation(n=20):
    """r/3 with rows (i mod 5, i, i mod 2), i < n, under the adaptive policy."""
    rel = Relation(Atom("r"), 3, counters=CostCounters(), index_policy=AdaptiveIndexPolicy())
    rel.insert_new([(Num(i % 5), Num(i), Num(i % 2)) for i in range(n)])
    return rel


def _read(rel, pattern):
    """Rows of one read, the counters it charged, and the ledgers after it."""
    rel.counters.reset()
    rows = [tuple(term.value for term in row) for row in matching_rows(rel, pattern)]
    charged = {k: v for k, v in rel.counters.snapshot().items() if v}
    ledgers = {
        cols: (ledger.cumulative_scan_cost, ledger.scans)
        for cols, ledger in rel.stats.ledgers.items()
    }
    return rows, charged, ledgers


class TestShapeParity:
    """Values pinned from the generator-based read path this replaced."""

    def test_nothing_bound(self):
        rows, charged, ledgers = _read(_relation(), (X, Y, Z))
        assert rows == [(i % 5, i, i % 2) for i in range(20)]
        assert charged == {"tuples_scanned": 20}
        assert ledgers == {}

    def test_one_bound_by_scan(self):
        rows, charged, ledgers = _read(_relation(), (Num(3), Y, Z))
        assert rows == [(3, 3, 1), (3, 8, 0), (3, 13, 1), (3, 18, 0)]
        assert charged == {"tuples_scanned": 20}
        assert ledgers == {(0,): (20, 1)}

    def test_one_bound_through_an_earned_index(self):
        rel = _relation()
        first = _read(rel, (Num(3), Y, Z))
        rows, charged, ledgers = _read(rel, (Num(3), Y, Z))
        assert rows == first[0]
        assert charged == {
            "index_builds": 1,
            "index_build_tuples": 20,
            "index_lookups": 1,
            "index_probe_tuples": 4,
        }
        assert ledgers == {(0,): (20, 1)}
        assert rel.stats.ledgers[(0,)].earned_index
        rows, charged, ledgers = _read(rel, (Num(3), Y, Z))
        assert rows == first[0]
        assert charged == {"index_lookups": 1, "index_probe_tuples": 4}

    def test_two_bound(self):
        rows, charged, ledgers = _read(_relation(), (Num(3), Y, Num(1)))
        assert rows == [(3, 3, 1), (3, 13, 1)]
        assert charged == {"tuples_scanned": 20}
        assert ledgers == {(0, 2): (20, 1)}

    def test_two_bound_through_a_one_column_index(self):
        rel = _relation()
        rel.build_index((0,))
        rows, charged, ledgers = _read(rel, (Num(3), Y, Num(1)))
        assert rows == [(3, 3, 1), (3, 13, 1)]
        assert charged == {"index_lookups": 1, "index_probe_tuples": 4}
        assert ledgers == {}

    def test_fully_bound_hit(self):
        rows, charged, ledgers = _read(_relation(), (Num(3), Num(8), Num(0)))
        assert rows == [(3, 8, 0)]
        assert charged == {"index_probe_tuples": 1}
        assert ledgers == {}

    def test_fully_bound_miss(self):
        rows, charged, ledgers = _read(_relation(), (Num(3), Num(9), Num(0)))
        assert rows == []
        assert charged == {}
        assert ledgers == {}


def _calls_during(read) -> int:
    """Python frames entered (``"call"`` profile events) while ``read`` runs.

    The collector is off meanwhile: a collection would run whatever
    ``gc.callbacks`` and finalizers the rest of the process installed."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        read()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def _pairs(n, keys):
    rel = Relation(Atom("e"), 2, index_policy=AdaptiveIndexPolicy())
    rel.insert_new([(Num(i % keys), Num(i)) for i in range(n)])
    return rel


class TestNoFramePerRow:
    def test_full_read(self):
        counts = set()
        for n in (100, 10_000):
            rel = _pairs(n, 10)
            rows = []
            counts.add(_calls_during(lambda: rows.extend(matching_rows(rel, (X, Y)))))
            assert len(rows) == n
        assert len(counts) == 1, counts

    def test_indexed_one_key_read(self):
        def calls(n, bucket):
            rel = _pairs(n, n // bucket)
            rel.build_index((0,))
            rows = []
            count = _calls_during(lambda: rows.extend(matching_rows(rel, (Num(1), Y))))
            assert len(rows) == bucket
            return count

        assert calls(100, 10) == calls(10_000, 10)
        # A bigger bucket adds at most the key comparison's ``Term.__eq__``
        # per hit, no frame of the read path itself.
        assert calls(10_000, 1_000) - calls(10_000, 10) <= 990
