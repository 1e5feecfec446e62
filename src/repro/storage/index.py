"""Hash indexes over relation columns.

An index maps the projection of a tuple onto a fixed column set to the list
of matching tuples.  Indexes are maintained incrementally on insert/delete
and may be created lazily at run time by the adaptive policy.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

from repro.terms.term import Term

Row = Tuple[Term, ...]


class HashIndex:
    """A hash index on a subset of a relation's columns.

    ``columns`` is a sorted tuple of 0-based column positions.
    """

    __slots__ = ("columns", "_buckets")

    def __init__(self, columns: Tuple[int, ...]):
        if not columns:
            raise ValueError("an index needs at least one column")
        if tuple(sorted(set(columns))) != tuple(columns):
            raise ValueError("index columns must be sorted and distinct")
        self.columns = columns
        self._buckets: dict = {}

    def key_of(self, row: Row) -> Row:
        return tuple(row[c] for c in self.columns)

    def add(self, row: Row) -> None:
        self._buckets.setdefault(self.key_of(row), []).append(row)

    def remove_many(self, rows: Iterable[Row]) -> None:
        """Remove a batch of rows, each bucket filtered in one pass; absent
        rows are ignored."""
        doomed: dict = {}
        for row in rows:
            doomed.setdefault(self.key_of(row), set()).add(row)
        buckets = self._buckets
        for key, gone in doomed.items():
            bucket = buckets.get(key)
            if bucket is None:
                continue
            bucket[:] = [row for row in bucket if row not in gone]
            if not bucket:
                del buckets[key]

    def probe(self, key: Row) -> Iterator[Row]:
        """Yield rows whose projection equals ``key``."""
        return iter(self._buckets.get(key, ()))

    def bucket(self, key: Row) -> Sequence[Row]:
        """The rows whose projection equals ``key``, as a sized sequence.

        The hash-join evaluator needs ``len()`` of a probe result to charge
        cost counters without a second lookup.
        """
        return self._buckets.get(key, ())

    def probe_count(self, key: Row) -> int:
        return len(self._buckets.get(key, ()))

    def buckets_view(self) -> dict:
        """The live ``{key: rows}`` bucket mapping (read-only by contract).

        The columnar kernels (``repro.col.kernels``) build their probe
        tables bucket by bucket from it, without re-hashing any stored row.
        """
        return self._buckets

    def probe_many(self, keys: Iterable[Row]) -> Iterator[Row]:
        """Rows for a batch of keys, bucket by bucket (bulk bucket access).

        Callers pass distinct keys; the union is therefore duplicate-free.
        The keyed-update path uses this to collect all victim tuples of a
        ``+=[keys]`` statement in one pass over the key set.
        """
        buckets = self._buckets
        for key in keys:
            yield from buckets.get(key, ())

    def bulk_load(self, rows: Iterable[Row]) -> int:
        """Add a batch of rows; returns the number loaded (the build cost
        in tuples, when the batch is the whole relation)."""
        buckets = self._buckets
        columns = self.columns
        count = 0
        if len(columns) == 1:
            (c,) = columns
            for row in rows:
                buckets.setdefault((row[c],), []).append(row)
                count += 1
        else:
            for row in rows:
                buckets.setdefault(tuple([row[c] for c in columns]), []).append(row)
                count += 1
        return count

    def clear(self) -> None:
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())
