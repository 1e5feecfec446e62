"""Tests for the uniondiff operator (paper Section 10)."""

from repro.storage.relation import Relation
from repro.storage.uniondiff import uniondiff
from repro.terms.term import Atom, Num


def row(*values):
    return tuple(Num(v) for v in values)


class TestUniondiff:
    def test_returns_only_new(self):
        r = Relation(Atom("r"), 1)
        r.insert(row(1))
        new = uniondiff(r, [row(1), row(2), row(3)])
        assert new == [row(2), row(3)]
        assert len(r) == 3

    def test_duplicates_in_delta_collapse(self):
        r = Relation(Atom("r"), 1)
        new = uniondiff(r, [row(1), row(1), row(2)])
        assert new == [row(1), row(2)]

    def test_empty_delta(self):
        r = Relation(Atom("r"), 1)
        r.insert(row(1))
        assert uniondiff(r, []) == []

    def test_all_old(self):
        r = Relation(Atom("r"), 1)
        r.insert_many([row(1), row(2)])
        assert uniondiff(r, [row(1), row(2)]) == []

    def test_preserves_first_occurrence_order(self):
        r = Relation(Atom("r"), 1)
        new = uniondiff(r, [row(3), row(1), row(3), row(2)])
        assert new == [row(3), row(1), row(2)]

    def test_union_and_diff_laws(self):
        """new == delta - old, and relation == old | delta afterwards."""
        r = Relation(Atom("r"), 1)
        old = [row(i) for i in range(5)]
        r.insert_many(old)
        delta = [row(i) for i in range(3, 8)]
        new = uniondiff(r, delta)
        assert set(new) == set(delta) - set(old)
        assert set(r.rows()) == set(old) | set(delta)


class TestUniondiffIds:
    """The id-space form: same contract, duplicates found on int tuples."""

    def setup_method(self):
        from repro.col.atoms import AtomTable

        self.atoms = AtomTable()

    def ids(self, *values):
        return [self.atoms.intern(Num(v)) for v in values]

    def test_union_and_diff_with_aligned_id_columns(self):
        from repro.storage.uniondiff import uniondiff_ids

        r = Relation(Atom("r"), 2)
        r.insert((Num(1), Num(2)))  # held before the fixpoint's id set knew
        seen = set()
        cols = [self.ids(3, 1, 3, 5), self.ids(4, 2, 4, 6)]
        new, new_cols = uniondiff_ids(r, cols, self.atoms, seen)
        assert new == [(Num(3), Num(4)), (Num(5), Num(6))]
        assert [self.atoms.decode(c) for c in new_cols] == [
            [Num(3), Num(5)], [Num(4), Num(6)],
        ]
        assert len(seen) == 3  # the pre-existing row is known from now on
        assert (r.counters.inserts, r.counters.duplicate_inserts) == (3, 2)
        # A second round: everything is a duplicate on ids alone.
        version = r.version
        assert uniondiff_ids(r, cols, self.atoms, seen) == ([], [])
        assert r.version == version
        assert r.counters.duplicate_inserts == 6
