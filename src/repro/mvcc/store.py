"""The version store: published catalog snapshots and write windows.

One ``VersionStore`` sits next to one ``Database``.  Writers bracket their
mutations in a *write window* (``begin_window`` .. ``publish``); readers
``pin()`` the latest published ``Snapshot`` -- a catalog of frozen
relations (``Relation.freeze``) that share row storage with the live
relations until the next mutation copies-on-write.  Because frozen clones
keep the live relation's ``(uid, version)`` fingerprint, everything keyed
by fingerprints or versions -- the NAIL! engine's incremental-IDB cache,
the columnar kernel tables a clone shares with its relation -- treats a
snapshot exactly like the live relation at the published version, so
cached derived relations stay correct across concurrent repair.

Threading contract: ``begin_window``/``publish`` are called by the single
thread holding the server's write lock; ``pin`` may be called from any
reader thread at any time.  Catalog (re)builds only happen while no window
is open, and a writer cannot open one mid-build because both paths take
``_lock`` -- so ``freeze()`` never races a mutation.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.storage.database import Database, PredKey, pred_key
from repro.storage.relation import Relation


class Snapshot:
    """One published catalog: immutable relations at a database version.

    ``catalog`` maps ``(name term, arity)`` to a frozen ``Relation``.
    Relations declared after publication resolve to cached empty
    *placeholders* (immutable, so a misrouted mutation raises instead of
    silently corrupting a reader's view).  There is no explicit unpin or
    refcount: a snapshot stays valid for as long as anyone holds a
    reference to it, and the garbage collector reclaims retired versions.
    """

    __slots__ = ("db_version", "catalog", "_placeholders", "_placeholder_lock")

    def __init__(self, db_version: int, catalog: dict):
        self.db_version = db_version
        self.catalog = catalog
        self._placeholders: dict = {}
        self._placeholder_lock = threading.Lock()

    def get(self, name, arity: int) -> Optional[Relation]:
        return self.catalog.get(pred_key(name, arity))

    def placeholder(self, key: PredKey) -> Relation:
        """An empty immutable relation for a key this snapshot predates."""
        with self._placeholder_lock:
            relation = self._placeholders.get(key)
            if relation is None:
                relation = Relation(key[0], key[1]).freeze()
                self._placeholders[key] = relation
            return relation

    def total_rows(self) -> int:
        return sum(len(rel) for rel in self.catalog.values())

    def __len__(self) -> int:
        return len(self.catalog)


class VersionStore:
    """Publishes catalog snapshots of one database; hands out pins.

    The store publishes when it is created, so there is always a snapshot
    to pin.  ``pin()`` is the reader entry point: it returns the newest
    published ``Snapshot``, rebuilding one first if the database moved
    while no write window was open (embedded single-threaded use therefore
    gets snapshot-now semantics without ever calling ``begin_window``).
    While a window *is* open, ``pin`` serves the previous published
    version -- copy-on-write keeps its contents consistent even as the
    writer runs.
    """

    def __init__(self, db: Database):
        self.db = db
        self._lock = threading.Lock()
        self._window_open = False
        self.publishes = 0
        self._published: Optional[Snapshot] = None
        self._rebuild_locked()  # readers always find a snapshot to pin

    # ------------------------------------------------------------------ #
    # writer side
    # ------------------------------------------------------------------ #

    def begin_window(self) -> None:
        """Open a write window: the caller (holding the database's write
        lock) is about to mutate.  Windows never nest: an explicit
        transaction's window spans ``begin`` .. ``commit``, and the ops
        inside it bracket nothing else."""
        with self._lock:
            self._window_open = True

    def publish(self) -> Snapshot:
        """Close the window and publish the current database state as the
        new read snapshot (when it actually moved).

        Returns the snapshot now visible to readers.  Emits a ``publish``
        trace event carrying the published version.
        """
        with self._lock:
            self._window_open = False
            return self._rebuild_locked()

    # ------------------------------------------------------------------ #
    # reader side
    # ------------------------------------------------------------------ #

    def pin(self) -> Snapshot:
        """The newest published snapshot."""
        with self._lock:
            snapshot = self._published
            if not self._window_open and snapshot.db_version != self.db.version:
                # The database moved outside any window (embedded use, or
                # reader compiles declaring relations): publish on demand.
                # No window can open mid-build -- that path also needs
                # ``_lock``.
                snapshot = self._rebuild_locked()
        self.db.counters.snapshot_pins += 1
        tracer = self.db.tracer
        if tracer.enabled:
            tracer.event(
                "mvcc", "snapshot", version=snapshot.db_version,
                relations=len(snapshot),
            )
        return snapshot

    def stats(self) -> dict:
        """Store-level stats for the server ``stats`` op."""
        with self._lock:
            snapshot = self._published
            return {
                "published_version": snapshot.db_version,
                "published_relations": len(snapshot),
                "publishes": self.publishes,
                "window_open": self._window_open,
            }

    # ------------------------------------------------------------------ #

    def _rebuild_locked(self) -> Snapshot:
        """Freeze the live catalog into a new published snapshot.

        Caller holds ``_lock`` with no window open (or is the constructor),
        so no mutation races the freezes.  ``freeze()`` reuses its cached
        clone for relations that did not change, so republishing after a
        small write costs one dict build plus one real freeze per *written*
        relation.  The version is read before the catalog: a reader-compile
        declare
        landing in between leaves the snapshot one declare behind its
        stamp, which only costs an extra rebuild on the next pin.
        """
        version = self.db.version
        previous = self._published
        if previous is not None and previous.db_version == version:
            return previous
        catalog = {
            key: rel.freeze() for key, rel in self.db.snapshot_relations()
        }
        snapshot = Snapshot(version, catalog)
        self._published = snapshot
        self.publishes += 1
        tracer = self.db.tracer
        if tracer.enabled:
            tracer.event(
                "mvcc", "publish", version=version, relations=len(catalog),
            )
        return snapshot
