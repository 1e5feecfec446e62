"""Unit tests for the HashIndex structure itself."""

import pytest

from repro.storage.index import HashIndex
from repro.terms.term import Atom, Num


def row(*values):
    return tuple(Num(v) if isinstance(v, int) else Atom(v) for v in values)


class TestHashIndex:
    def test_add_and_probe(self):
        index = HashIndex((0,))
        index.add(row(1, "a"))
        index.add(row(1, "b"))
        index.add(row(2, "c"))
        assert sorted(map(str, index.probe((Num(1),)))) == [
            str(row(1, "a")), str(row(1, "b")),
        ]
        assert index.probe_count((Num(2),)) == 1
        assert index.probe_count((Num(9),)) == 0

    def test_multi_column_key(self):
        index = HashIndex((0, 2))
        index.add(row(1, "x", 5))
        index.add(row(1, "y", 5))
        index.add(row(1, "x", 6))
        assert index.probe_count((Num(1), Num(5))) == 2

    def test_remove(self):
        index = HashIndex((0,))
        index.add(row(1, "a"))
        index.remove_many([row(1, "a")])
        assert index.probe_count((Num(1),)) == 0
        index.remove_many([row(1, "a")])  # absent: no error

    def test_remove_keeps_other_rows_in_bucket(self):
        index = HashIndex((0,))
        index.add(row(1, "a"))
        index.add(row(1, "b"))
        index.remove_many([row(1, "a")])
        assert index.probe_count((Num(1),)) == 1

    @pytest.mark.parametrize("doomed", [3, 12])
    def test_remove_many_keeps_the_rest_in_order(self, doomed):
        index = HashIndex((0,))
        index.bulk_load([row(1, n) for n in range(20)] + [row(2, 0)])
        index.remove_many([row(1, n) for n in range(0, 2 * doomed, 2)]
                          + [row(1, 99), row(3, 0), row(2, 0)])
        kept = [row(1, n) for n in range(20) if n % 2 or n >= 2 * doomed]
        assert list(index.probe((Num(1),))) == kept
        assert index.probe_count((Num(2),)) == 0 and (Num(2),) not in index.buckets_view()

    def test_bulk_load_returns_count(self):
        index = HashIndex((1,))
        assert index.bulk_load([row(1, "a"), row(2, "a"), row(3, "b")]) == 3
        assert index.probe_count((Atom("a"),)) == 2

    def test_len_and_clear(self):
        index = HashIndex((0,))
        index.bulk_load([row(i, "v") for i in range(5)])
        assert len(index) == 5
        index.clear()
        assert len(index) == 0

    def test_columns_validated(self):
        with pytest.raises(ValueError):
            HashIndex(())
        with pytest.raises(ValueError):
            HashIndex((2, 1))
        with pytest.raises(ValueError):
            HashIndex((1, 1))

    def test_key_of(self):
        index = HashIndex((1,))
        assert index.key_of(row(1, "k", 2)) == (Atom("k"),)
