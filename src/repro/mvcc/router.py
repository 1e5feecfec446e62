"""A ``Database``-shaped facade that routes reads through a pinned snapshot.

``GlueNailSystem`` (and through it the NAIL! engine, the Glue VM, the
optimizer and the columnar kernels) only ever sees ``self.db``.  Wrapping
that handle in a ``SnapshotRouter`` makes every one of those layers
snapshot-capable without touching them: while a thread holds a pin
(``with router.pinned(snapshot):``) the catalog read surface --
``get``/``keys``/``items``/``version``/``snapshot_relations``/... --
resolves against the snapshot's frozen relations, so evaluation, adaptive
index builds and fingerprint-keyed caches all run against one immutable
published version; a relation the snapshot lacks reads as empty.
Everything else (declares, writes, journal attachment) goes to the live
database, and only a write window makes those.

The pin is thread-local: the server pins per request thread, so one
session's reader never changes what a concurrently flushing subscription
engine sees.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.storage.database import Database, PredKey, pred_key
from repro.storage.relation import Relation
from repro.terms.term import sort_key

from repro.mvcc.store import Snapshot


class SnapshotRouter:
    """Routes the ``Database`` read surface through a per-thread snapshot."""

    def __init__(self, db: Database, store=None):
        from repro.mvcc.store import VersionStore

        self.live = db
        self.store = store if store is not None else VersionStore(db)
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # pinning
    # ------------------------------------------------------------------ #

    @property
    def snapshot_active(self) -> bool:
        return getattr(self._local, "snap", None) is not None

    @contextmanager
    def pinned(self, snapshot: Snapshot):
        """Route this thread's reads through ``snapshot`` for the block."""
        previous = getattr(self._local, "snap", None)
        self._local.snap = snapshot
        try:
            yield snapshot
        finally:
            self._local.snap = previous

    # ------------------------------------------------------------------ #
    # live-database plumbing the evaluators reach through the handle
    # ------------------------------------------------------------------ #

    @property
    def index_policy(self):
        return self.live.index_policy

    @property
    def counters(self):
        return self.live.counters

    @counters.setter
    def counters(self, value) -> None:
        self.live.counters = value

    @property
    def tracer(self):
        return self.live.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.live.tracer = value

    @property
    def columnar(self):
        return self.live.columnar

    def __getattr__(self, name):
        # Anything not explicitly routed (private helpers, future surface)
        # behaves exactly like the live database.
        if name == "live":  # guard against recursion pre-__init__
            raise AttributeError(name)
        return getattr(self.live, name)

    # ------------------------------------------------------------------ #
    # catalog reads: snapshot when pinned, live otherwise
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        snap = getattr(self._local, "snap", None)
        if snap is not None:
            return snap.db_version
        return self.live.version

    def get(self, name, arity: int) -> Optional[Relation]:
        snap = getattr(self._local, "snap", None)
        if snap is None:
            return self.live.get(name, arity)
        key = pred_key(name, arity)
        relation = snap.catalog.get(key)
        if relation is not None:
            return relation
        if self.live.get(name, arity) is not None:
            # Declared after publication: this snapshot predates it, so it
            # reads as empty -- and immutably so, which turns a misrouted
            # write into a loud error instead of a corrupted reader view.
            return snap.placeholder(key)
        return None

    def relation(self, name, arity: int) -> Relation:
        snap = getattr(self._local, "snap", None)
        if snap is None:
            return self.live.relation(name, arity)
        key = pred_key(name, arity)
        relation = snap.catalog.get(key)
        if relation is not None:
            return relation
        # A pinned reader never declares: a relation the snapshot lacks is
        # the snapshot's empty, immutable view of it.
        return snap.placeholder(key)

    def exists(self, name, arity: int) -> bool:
        snap = getattr(self._local, "snap", None)
        if snap is None:
            return self.live.exists(name, arity)
        return pred_key(name, arity) in snap.catalog

    def snapshot_relations(self) -> list:
        snap = getattr(self._local, "snap", None)
        if snap is None:
            return self.live.snapshot_relations()
        return list(snap.catalog.items())

    def keys(self) -> Iterator[PredKey]:
        snap = getattr(self._local, "snap", None)
        if snap is None:
            return self.live.keys()
        return iter(snap.catalog)

    def items(self) -> Iterator[Tuple[PredKey, Relation]]:
        snap = getattr(self._local, "snap", None)
        if snap is None:
            return self.live.items()
        return iter(snap.catalog.items())

    def sorted_keys(self) -> list:
        snap = getattr(self._local, "snap", None)
        if snap is None:
            return self.live.sorted_keys()
        return sorted(snap.catalog, key=lambda key: (sort_key(key[0]), key[1]))

    def __len__(self) -> int:
        snap = getattr(self._local, "snap", None)
        if snap is None:
            return len(self.live)
        return len(snap.catalog)

    def __contains__(self, key) -> bool:
        if isinstance(key, tuple) and len(key) == 2 and isinstance(key[1], int):
            snap = getattr(self._local, "snap", None)
            if snap is None:
                return key in self.live
            return pred_key(key[0], key[1]) in snap.catalog
        raise TypeError("membership test needs a (name, arity) pair")

    def total_rows(self) -> int:
        snap = getattr(self._local, "snap", None)
        if snap is None:
            return self.live.total_rows()
        return snap.total_rows()

    # ------------------------------------------------------------------ #
    # mutations: always the live database
    # ------------------------------------------------------------------ #

    def declare(self, name, arity: int) -> Relation:
        return self.live.declare(name, arity)

    def drop(self, name, arity: int) -> bool:
        return self.live.drop(name, arity)

    def fact(self, name, *values) -> bool:
        return self.live.fact(name, *values)

    def facts(self, name, rows) -> int:
        return self.live.facts(name, rows)
