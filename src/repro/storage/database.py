"""The Extensional Data Base: a catalog of named relations.

Predicates are identified by (name term, arity); the name may be a compound
HiLog term, which is how set-valued attributes ("the name of a predicate")
resolve to storage.  The database tracks a global version number so that
IDB caches can be invalidated when any EDB relation changes.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterator, Optional, Tuple

from repro.obs.tracer import Tracer
from repro.storage.adaptive import AdaptiveIndexPolicy, IndexPolicy
from repro.storage.relation import Relation, atomically
from repro.storage.stats import CostCounters
from repro.terms.term import Atom, Term, is_ground, sort_key

PredKey = Tuple[Term, int]


def pred_key(name, arity: int) -> PredKey:
    """Normalize a predicate key; plain strings are lifted to atoms."""
    if isinstance(name, str):
        name = Atom(name)
    if not isinstance(name, Term):
        raise TypeError(f"predicate name must be a Term or str, got {type(name).__name__}")
    if not is_ground(name):
        raise ValueError(f"predicate name must be ground: {name}")
    return (name, arity)


class _VersionClock:
    """A database's version counter, ticked by its relations on every
    change.  It holds no reference back to the database, so a database and
    its relations form no cycle and are freed by reference counting."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def __call__(self, _relation: Relation) -> None:
        self.value += 1


class Database:
    """A main-memory EDB: relations keyed by (ground name term, arity)."""

    def __init__(
        self,
        index_policy: Optional[IndexPolicy] = None,
        counters: Optional[CostCounters] = None,
        tracer: Optional[Tracer] = None,
        columnar=None,
    ):
        from repro.col.kernels import ColumnarContext

        self.index_policy = index_policy if index_policy is not None else AdaptiveIndexPolicy()
        self.counters = counters if counters is not None else CostCounters()
        # One tracing hub per database; disabled until a sink is installed.
        self.tracer = tracer or Tracer(self.counters)
        # Shared columnar state (the atom table, see repro.col).
        # Databases that evaluate against each other -- the NAIL! engine's
        # IDB over this EDB -- pass the owning database's context so ids
        # stay comparable across join keys.
        self.columnar = columnar if columnar is not None else ColumnarContext()
        self._relations: dict = {}  # PredKey -> Relation
        self._clock = _VersionClock()
        self._journal = None

    @property
    def version(self) -> int:
        """Bumped whenever any relation in the database changes."""
        return self._clock.value

    def snapshot_relations(self) -> list:
        """A ``[(key, relation), ...]`` copy of the catalog, for callers
        (the NAIL! engine's per-relation freshness check) that fingerprint
        each relation while the catalog may change."""
        return list(self._relations.items())

    # ------------------------------------------------------------------ #
    # journal (transactions / write-ahead logging)
    # ------------------------------------------------------------------ #

    @property
    def journal(self):
        """The attached mutation journal, or None (plain in-memory EDB)."""
        return self._journal

    def attach_journal(self, journal) -> None:
        """Install (or with None, remove) a mutation journal.

        The journal observes every EDB mutation: tuple inserts/deletes on
        each relation plus catalog declares and drops.  The transaction
        subsystem (``repro.txn``) uses this to undo-log open transactions
        and to redo-log committed ones into the write-ahead log.
        """
        self._journal = journal
        for relation in self._relations.values():
            relation.journal = journal

    def transactions(self):
        """This database's transaction manager, attached on first call.

        Lazy on purpose: derived-relation databases (the NAIL! engine's
        IDB, magic seeds) never call it, so their rows are never journaled.
        """
        from repro.txn.manager import TransactionManager

        if self._journal is None:
            self.attach_journal(TransactionManager(self))
        return self._journal

    def atomically(self):
        """A context in which mutations are one implicit transaction (see
        :func:`repro.storage.relation.atomically`)."""
        return atomically(self._journal)

    # ------------------------------------------------------------------ #
    # catalog
    # ------------------------------------------------------------------ #

    def declare(self, name, arity: int) -> Relation:
        """Declare (create if absent) a relation and return it."""
        key = pred_key(name, arity)
        relation = self._relations.get(key)
        if relation is None:
            relation = Relation(
                key[0],
                arity,
                counters=self.counters,
                index_policy=self.index_policy,
                listener=self._clock,
                tracer=self.tracer,
            )
            relation.journal = self._journal
            relation.columnar = self.columnar
            self._relations[key] = relation
            self._clock.value += 1
            if self._journal is not None:
                self._journal.record_declare(key[0], arity)
        if relation.arity != arity:
            raise ValueError(f"relation {key[0]} exists with arity {relation.arity}")
        return relation

    def get(self, name, arity: int) -> Optional[Relation]:
        return self._relations.get(pred_key(name, arity))

    def relation(self, name, arity: int) -> Relation:
        """Fetch a relation, creating it on first reference.

        Deductive programs create hundreds of small short-lived relations
        (paper Section 10), so creation-on-reference is the normal path.
        """
        return self.declare(name, arity)

    def exists(self, name, arity: int) -> bool:
        return pred_key(name, arity) in self._relations

    def drop(self, name, arity: int) -> bool:
        key = pred_key(name, arity)
        relation = self._relations.get(key)
        if relation is None:
            return False
        if self._journal is not None:
            self._journal.record_drop(key[0], arity, relation.copy_rows())
        del self._relations[key]
        self._clock.value += 1
        return True

    def keys(self) -> Iterator[PredKey]:
        return iter(self._relations)

    def items(self) -> Iterator[Tuple[PredKey, Relation]]:
        return iter(self._relations.items())

    def sorted_keys(self) -> list:
        return sorted(self._relations, key=lambda key: (sort_key(key[0]), key[1]))

    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, key) -> bool:
        if isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], int):
            return pred_key(key[0], key[1]) in self._relations
        raise TypeError("membership test needs a (name, arity) pair")

    def total_rows(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    def fact(self, name, *values) -> bool:
        """Convenience: insert one ground fact, lifting Python values.

        ``db.fact("edge", 1, 2)`` inserts ``edge(1, 2)``.
        """
        from repro.terms.term import mk

        row = tuple(mk(v) for v in values)
        return self.relation(name, len(row)).insert(row)

    def facts(self, name, rows) -> int:
        """Insert many facts as one batch; returns the number genuinely new.

        Every row is lifted before any is stored; each run of same-arity
        rows is one bulk insert, and all of them are one implicit
        transaction (see :meth:`atomically`).
        """
        from repro.terms.term import mk

        lifted = [tuple(mk(v) for v in row) for row in rows]
        with self.atomically():
            runs = groupby(lifted, key=len)
            return sum(len(self.relation(name, n).insert_new(run)) for n, run in runs)
