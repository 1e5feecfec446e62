"""Duplicate-free, main-memory relations over ground tuples.

Relations are the single data structure of Glue-Nail: the EDB, procedure
local relations, supplementary relations and IDB results are all instances
of this class.  Tuples must be completely ground (paper Section 2), which
is enforced on insert; predicates do not have duplicates, which the storage
representation guarantees by construction.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from contextlib import nullcontext
from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.storage.adaptive import IndexPolicy
from repro.storage.index import HashIndex
from repro.storage.stats import (
    CardinalityProfile,
    CostCounters,
    RelationSnapshot,
    RelationStats,
)
from repro.terms.matching import Bindings, match_tuple, substitute
from repro.terms.term import SCALAR_TYPES, Term, Var, is_ground, sort_key

Row = Tuple[Term, ...]

# Monotone id assigned to every Relation instance: lets a cache tell a
# dropped-and-redeclared relation (fresh counter, same name) apart from the
# object it fingerprinted earlier.
_uid_lock = threading.Lock()
_next_uid = 0


def _fresh_uid() -> int:
    global _next_uid
    with _uid_lock:
        _next_uid += 1
        return _next_uid


#: The most change-log entries a relation keeps; older ones are dropped and
#: the log's horizon advances past them.
MAX_CHANGELOG_ENTRIES = 1024


class ChangeLog:
    """A bounded journal of row-level changes since a version.

    Entries are ``(version_after, kind, rows)`` with kind ``"+"`` (rows
    genuinely inserted) or ``"-"`` (rows genuinely deleted).  The log is
    *windowed*: ``horizon`` is the oldest version the log can answer from;
    when the entry cap is exceeded the oldest entries are dropped and the
    horizon advances, so memory stays bounded and a reader that fell too
    far behind simply gets "unknown" (and recomputes from scratch).

    Tracking is opt-in (:meth:`Relation.track_changes`): relations nobody
    watches -- VM locals, supplementary relations -- pay only a ``None``
    check per mutation.
    """

    __slots__ = ("horizon", "entries")

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.entries: list = []  # (version_after, kind, tuple(rows))

    def record(self, version: int, kind: str, rows) -> None:
        self.entries.append((version, kind, tuple(rows)))
        if len(self.entries) > MAX_CHANGELOG_ENTRIES:
            overflow = len(self.entries) - MAX_CHANGELOG_ENTRIES
            self.horizon = self.entries[overflow - 1][0]
            del self.entries[:overflow]

    def copy(self) -> "ChangeLog":
        """An independent copy (frozen-snapshot clones take one at freeze
        time, so a reader netting changes never races writer appends or
        the overflow compaction shifting ``entries`` indices)."""
        clone = ChangeLog(self.horizon)
        clone.entries = list(self.entries)
        return clone

    def net_since(self, version: int):
        """Net row changes after ``version``: ``(inserted, deleted)`` lists,
        or ``None`` when the window no longer reaches back that far.

        Offsetting pairs cancel: a row inserted then deleted (or deleted
        then restored, e.g. by a transaction rollback) contributes nothing,
        so a rolled-back transaction nets to *no change at all*.
        """
        if version < self.horizon:
            return None
        first: dict = {}
        last: dict = {}
        for _entry_version, kind, rows in self._entries_after(version):
            for row in rows:
                if row not in first:
                    first[row] = kind
                last[row] = kind
        inserted = []
        deleted = []
        for row, last_kind in last.items():
            if first[row] == "+" and last_kind == "+":
                inserted.append(row)  # absent before, present now
            elif first[row] == "-" and last_kind == "-":
                deleted.append(row)  # present before, absent now
            # "+..-" and "-..+" sequences net to zero.
        return inserted, deleted

    def inserts_since(self, version: int) -> Optional[list]:
        """Rows inserted after ``version``, in insertion order, or ``None``
        when the window no longer reaches back that far or any change since
        was a delete.

        Stricter than an insert-only :meth:`net_since`: insert -> delete ->
        re-insert nets to one insert but moves the row to the end of its
        index bucket, so only an unbroken run of inserts means "the old
        buckets, with these rows appended".
        """
        if version < self.horizon:
            return None
        added: list = []
        for _entry_version, kind, rows in self._entries_after(version):
            if kind != "+":
                return None
            added.extend(rows)
        return added

    def _entries_after(self, version: int) -> list:
        # Entry versions are strictly increasing; bisect to the first entry
        # past ``version`` so a reader that polls every round (the planner's
        # column profile) pays for its delta, not the whole window.
        entries = self.entries
        return entries[bisect_right(entries, version, key=itemgetter(0)):]


def atomically(journal):
    """A context in which a journal's mutations are one implicit transaction.

    With a journal and no transaction open, the block runs as one
    transaction (all of it or none, one WAL commit, one commit
    notification); inside an open one, or with no journal, it simply joins
    what is there.
    """
    if journal is None or journal.in_transaction:
        return nullcontext()
    return journal.transaction()


class Relation:
    """A set of ground tuples of fixed arity, with optional hash indexes.

    ``name`` is a ground term (relation names may be compound HiLog terms
    such as ``students(cs99)``).  Insertion order is preserved for
    deterministic iteration; :meth:`sorted_rows` gives a canonical order.
    """

    def __init__(
        self,
        name: Term,
        arity: int,
        counters: Optional[CostCounters] = None,
        index_policy: Optional[IndexPolicy] = None,
        listener: Optional[Callable[["Relation"], None]] = None,
        tracer: Tracer = NULL_TRACER,
    ):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        if not is_ground(name):
            raise ValueError(f"relation name must be ground: {name}")
        self.name = name
        self.arity = arity
        self.counters = counters if counters is not None else CostCounters()
        self.index_policy = index_policy
        self.tracer = tracer
        # Optional mutation journal (transactions / write-ahead logging).
        # Relations outside a durable Database never pay more than one
        # attribute read per mutation for it.
        self.journal = None
        self.stats = RelationStats()
        self._rows: dict = {}  # Row -> None; dict preserves insertion order
        self._indexes: dict = {}  # tuple[int, ...] -> HashIndex
        # Guards index creation/lookup and the scan-cost ledgers: adaptive
        # index builds fire from *read* paths, which the query server runs
        # concurrently on pinned snapshots.
        self._index_lock = threading.RLock()
        self._version = 0
        self._listener = listener
        self.uid = _fresh_uid()
        # Row-level change journal; None until a cache calls track_changes.
        self._changelog: Optional[ChangeLog] = None
        # The shared per-database columnar context (repro.col), set by
        # Database.declare; None for free-standing relations, which the
        # batch kernels then leave to the row engine.
        self.columnar = None
        # Columnar kernel tables built over this relation (repro.col):
        # (context, kind, shape) -> (version, table).  Frozen clones share
        # the dict, so the tables live exactly as long as the relation.
        self.kernel_tables: dict = {}
        # MVCC snapshot state (see repro.mvcc): ``_rows_shared`` marks a
        # ``_rows`` that a frozen clone and its live relation may both hold,
        # so the next change copies it first; ``_frozen`` caches the clone;
        # ``_immutable`` marks the clone itself (mutations are an error).
        self._rows_shared = False
        self._frozen: Optional["Relation"] = None
        self._immutable = False

    # ------------------------------------------------------------------ #
    # basic set operations
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Bumped on every successful mutation; drives ``unchanged(P)``."""
        return self._version

    @property
    def fingerprint(self) -> Tuple[int, int]:
        """``(uid, version)``: equal iff this is the same relation object in
        the same state -- the unit of IDB-cache invalidation."""
        return (self.uid, self._version)

    def track_changes(self) -> None:
        """Start journaling row-level changes (idempotent).

        After this call, :meth:`changes_since` can answer "what happened
        after version v" for any v at or past the current version.  The
        NAIL! engine enables tracking on the EDB relations in its
        dependency support sets so inserts can be propagated as seminaive
        deltas instead of triggering full recomputation.
        """
        if self._changelog is None:
            self._changelog = ChangeLog(self._version)

    def changes_since(self, version: int):
        """Net ``(inserted_rows, deleted_rows)`` after ``version``, or
        ``None`` when unknown (tracking off, or the window was exceeded)."""
        if self._changelog is None:
            return None
        if version > self._version:
            # The caller cached a NEWER state than this relation -- e.g. a
            # live query ran, then a pinned MVCC snapshot moved time
            # backwards.  Un-applying changes is not a delta we journal.
            return None
        return self._changelog.net_since(version)

    def inserts_since(self, version: int) -> Optional[list]:
        """The rows inserted after ``version`` when nothing else happened
        since (see :meth:`ChangeLog.inserts_since`); ``None`` otherwise,
        including for untracked relations and a ``version`` in the future."""
        if self._changelog is None or version > self._version:
            return None
        return self._changelog.inserts_since(version)

    def _changed(self) -> None:
        self._version += 1
        if self._listener is not None:
            self._listener(self)

    # ------------------------------------------------------------------ #
    # immutable snapshots (MVCC read path, see repro.mvcc)
    # ------------------------------------------------------------------ #

    def _writable(self) -> None:
        if self._immutable:
            raise ValueError(
                f"relation {self.name}/{self.arity} is a frozen snapshot; "
                "mutate the live relation instead"
            )

    def _cow(self) -> None:
        """Copy-on-write barrier: detach from any frozen clone's rows.

        Called by the two mutation paths once a row actually changes, so a
        batch of duplicates or absent rows leaves the dict shared.  A dict
        copy is one C-level pass over row pointers, paid once per written
        relation per frozen generation.  The live indexes keep working
        unchanged -- they hold row tuples, not dict references -- while the
        clone (which starts with no indexes) builds its own lazily over the
        shared, now-immutable dict.
        """
        self._writable()
        if self._rows_shared:
            self._rows = dict(self._rows)
            self._rows_shared = False

    def freeze(self) -> "Relation":
        """An immutable snapshot of this relation at its current version.

        The clone shares this relation's row dict until the next mutation
        copies it (:meth:`_cow`), keeps the same ``uid`` and version --
        so fingerprint-keyed caches (the NAIL! engine's incremental IDB
        maintenance, columnar kernel tables) treat it as the same relation
        in the same state -- and carries a private copy of the change log,
        letting ``changes_since`` answer across published generations.
        Freezing also turns on change tracking on the *live* relation so
        the next generation's clone can answer incrementally.

        Repeated calls at an unchanged version return the cached clone,
        making whole-catalog snapshots cheap between writes.  The caller
        serializes freezes against mutations (the version store freezes
        only while no write window is open).
        """
        frozen = self._frozen
        if frozen is not None and frozen._version == self._version:
            return frozen
        self.track_changes()
        clone = Relation.__new__(Relation)
        clone.name = self.name
        clone.arity = self.arity
        clone.counters = self.counters
        clone.index_policy = self.index_policy
        clone.tracer = self.tracer
        clone.journal = None
        # Scan-cost ledgers are shared across generations: an index verdict
        # the adaptive policy reached on one published clone holds for the
        # next, instead of costing one more full scan after every commit.
        # A current live column profile hands the clone its distinct counts
        # (the clone never changes, so counts are all it needs); otherwise
        # the clone profiles itself on its first stats read.
        clone.stats = RelationStats(ledgers=self.stats.ledgers)
        with self._index_lock:
            profile = self.stats.profile
            if profile is not None and profile.version == self._version:
                clone.stats.profile = CardinalityProfile(
                    version=self._version, counts=profile.distincts()
                )
        clone._rows = self._rows
        clone._indexes = {}
        clone._index_lock = threading.RLock()
        clone._version = self._version
        clone._listener = None
        clone.uid = self.uid
        clone._changelog = self._changelog.copy()
        clone.columnar = self.columnar
        clone.kernel_tables = self.kernel_tables
        clone._rows_shared = True
        clone._frozen = None
        clone._immutable = True
        self._rows_shared = True
        self._frozen = clone
        return clone

    def _check_row(self, row: Row) -> Row:
        row = tuple(row)
        if len(row) != self.arity:
            raise ValueError(
                f"arity mismatch for {self.name}: expected {self.arity}, got {len(row)}"
            )
        for value in row:
            if value.__class__ in SCALAR_TYPES:
                continue  # ground by construction; skip the general walk
            if not isinstance(value, Term):
                raise TypeError(f"relation values must be Terms, got {type(value).__name__}")
            if not is_ground(value):
                raise ValueError(f"relations hold only ground tuples; got {value}")
        return row

    def insert(self, row: Row) -> bool:
        """Insert a tuple; returns True when it was genuinely new."""
        return bool(self.insert_trusted((self._check_row(row),)))

    def _profile_add(self, rows, column_values=None) -> None:
        """Keep a live column profile current across an insert.

        Growing the per-column distinct sets here costs the same set-adds
        the change-log replay in :meth:`column_profile` would pay later,
        but skips re-netting the log -- the planner's every-round refresh
        on seminaive-growing relations becomes a version check.  Deletes
        drop the profile instead (distinct counts cannot shrink a set).

        ``column_values``, when given, is one iterable per column covering
        every value ``rows`` holds there (the id-space merge passes each
        column's *distinct* values, so a round hashes a Term once per
        distinct value instead of once per row).
        """
        profile = self.stats.profile
        if profile is not None and profile.column_values is not None:
            columns = profile.column_values
            if column_values is not None:
                for column, values in zip(columns, column_values):
                    column.update(values)
            else:
                for row in rows:
                    for col, value in enumerate(row):
                        columns[col].add(value)
            profile.version = self._version

    def insert_many(self, rows: Iterable[Row]) -> int:
        """Insert many rows through the :meth:`insert_new` bulk path.

        One version bump, one listener notification and one change-log
        entry per batch -- so columnar invalidation and subscriptions see
        a single delta per load instead of one per row.
        """
        return len(self.insert_new(rows))

    def insert_new(self, rows: Iterable[Row]) -> list:
        """Bulk-load: insert many rows, returning the genuinely new ones.

        Equivalent to calling :meth:`insert` per row (rows validated,
        duplicates skipped, indexes maintained) but with one version bump,
        one listener notification and one journal call per batch, so
        outside a transaction the batch is one implicit transaction.  The
        whole batch is validated before anything is stored.
        """
        check = self._check_row
        return self.insert_trusted([check(row) for row in rows])

    def insert_trusted(self, rows: Iterable[Row], column_values=None) -> list:
        """:meth:`insert_new` without the per-value re-check: the one path
        that stores rows.

        The caller guarantees every row is a tuple of ground Terms of this
        relation's arity -- rows decoded from interned ids (the seminaive
        merge, ``uniondiff``) or already validated.  Duplicates are skipped
        in first-occurrence order and indexes maintained per new row; then,
        once per batch and only if a row is new, the copy-on-write barrier,
        one version bump, one listener notification, one profile update
        (see :meth:`_profile_add` for ``column_values``) and one change-log
        entry, and last one journal call with the new rows.
        """
        stored = self._rows
        if self._rows_shared:
            rows = list(rows)
            if all(row in stored for row in rows):
                self.counters.duplicate_inserts += len(rows)
                return []
            self._cow()
            stored = self._rows
        new: list = []
        append = new.append
        size = len(stored)
        total = 0
        for row in rows:
            total += 1
            # One hash per row: storing an existing key changes nothing
            # (the dict keeps its first key object and order), so an
            # unchanged length is the duplicate test.
            stored[row] = None
            if len(stored) == size:
                continue
            size += 1
            append(row)
        if total != len(new):
            self.counters.duplicate_inserts += total - len(new)
        if new:
            for index in list(self._indexes.values()):
                index.bulk_load(new)
            self.counters.inserts += len(new)
            self._changed()
            self._profile_add(new, column_values)
            if self._changelog is not None:
                self._changelog.record(self._version, "+", new)
            # Journal last: an autocommitted batch reaches commit observers
            # only once its version and change-log entry exist, so their
            # caches see the rows as a change.
            if self.journal is not None:
                self.journal.record_inserts(self, new)
        return new

    def delete(self, row: Row) -> bool:
        return self.delete_many((row,)) == 1

    def delete_many(self, rows: Iterable[Row]) -> int:
        """Delete many rows; returns how many were present: the one path
        that removes rows.

        Like :meth:`insert_trusted`, the bookkeeping is once per batch and
        only if a row goes: the copy-on-write barrier, one version bump and
        listener notification, the column profile dropped (distinct counts
        cannot shrink in place), one change-log entry, and last one journal
        call, so outside a transaction the batch is one implicit one.
        """
        stored = self._rows
        if rows is stored:  # clear(): every row goes, none needs a test
            count = len(stored)
            watched = self._changelog is not None or self.journal is not None
            gone = list(stored) if watched else None
        else:
            # Materialize first: callers may pass iterators over this relation.
            gone = [row for row in dict.fromkeys(map(tuple, rows)) if row in stored]
            count = len(gone)
        if not count:
            return 0
        if count == len(stored):
            # Every row goes: a fresh dict, so no frozen clone's is copied.
            self._writable()
            self._rows = {}
            self._rows_shared = False
            for index in list(self._indexes.values()):
                index.clear()
        else:
            self._cow()
            stored = self._rows
            for row in gone:
                del stored[row]
            for index in list(self._indexes.values()):
                index.remove_many(gone)
        self.counters.deletes += count
        self.stats.profile = None
        self._changed()
        if self._changelog is not None:
            self._changelog.record(self._version, "-", gone)
        if self.journal is not None:
            self.journal.record_deletes(self, gone)
        return count

    def clear(self) -> None:
        self.delete_many(self._rows)

    def replace(self, rows: Iterable[Row]) -> None:
        """Clearing assignment ``:=``: overwrite the contents.

        Overwriting with the identical set of tuples is a no-op, so
        ``unchanged(P)`` (which watches the version counter) answers
        according to *content*, not syntactic re-assignment -- the reading
        the paper's repeat/until termination tests rely on.
        """
        new_rows = [self._check_row(row) for row in rows]
        new_set = dict.fromkeys(new_rows)
        if new_set.keys() == self._rows.keys():
            return
        with atomically(self.journal):
            self.clear()
            self.insert_trusted(new_set)  # validated above

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def rows(self) -> Iterator[Row]:
        return iter(self._rows)

    def sorted_rows(self) -> list:
        return sorted(self._rows, key=lambda row: tuple(sort_key(v) for v in row))

    def copy_rows(self) -> list:
        return list(self._rows)

    # ------------------------------------------------------------------ #
    # indexes and selection
    # ------------------------------------------------------------------ #

    def build_index(self, columns: Tuple[int, ...]) -> HashIndex:
        """Build (or return) a hash index on the given column positions."""
        columns = tuple(sorted(set(columns)))
        for c in columns:
            if not 0 <= c < self.arity:
                raise ValueError(f"index column {c} out of range for arity {self.arity}")
        with self._index_lock:
            existing = self._indexes.get(columns)
            if existing is not None:
                return existing
            index = HashIndex(columns)
            loaded = index.bulk_load(self._rows)
            self._indexes[columns] = index
        self.counters.index_builds += 1
        self.counters.index_build_tuples += loaded
        if self.tracer.enabled:
            self.tracer.event(
                "index_build",
                f"{self.name}/{self.arity} cols={list(columns)}",
                rows=loaded,
            )
        return index

    def probe_buckets(self, columns: Tuple[int, ...], keys: Iterable[Row]) -> list:
        """Bulk bucket access: all stored rows matching any of ``keys``.

        One index lookup is charged per key; callers pass distinct keys so
        the result is duplicate-free (rows live in exactly one bucket).
        """
        index = self.build_index(columns)
        keys = list(keys)
        hits = list(index.probe_many(keys))
        self.counters.index_lookups += len(keys)
        self.counters.index_probe_tuples += len(hits)
        return hits

    def has_index(self, columns: Tuple[int, ...]) -> bool:
        with self._index_lock:
            return tuple(sorted(set(columns))) in self._indexes

    @property
    def index_columns(self) -> list:
        with self._index_lock:
            return sorted(self._indexes)

    # ------------------------------------------------------------------ #
    # planner statistics
    # ------------------------------------------------------------------ #

    def column_profile(self) -> Tuple[int, ...]:
        """Per-column distinct-value counts, for selectivity estimates.

        The first call scans the relation once and turns on change
        tracking; later calls replay the change log's net inserts since the
        profiled version, so a relation that only grows (the seminaive
        common case) refreshes in time proportional to its delta.  Nets
        with deletes, or a log window that fell behind, rebuild -- but the
        O(rows) rebuild runs *outside* ``_index_lock`` (only the row-list
        copy is taken under it), so a post-delete stats read never stalls
        concurrent selections, index builds, or other planners' snapshot
        reads behind a full scan.
        """
        with self._index_lock:
            distincts = self._profile_refresh_locked()
            if distincts is not None:
                return distincts
            self.track_changes()
            version = self._version
            rows = list(self._rows)
        values = [set() for _ in range(self.arity)]
        for row in rows:
            for col, value in enumerate(row):
                values[col].add(value)
        with self._index_lock:
            if self._version == version:
                self.stats.profile = CardinalityProfile(
                    version=version, column_values=values
                )
            # A concurrent mutation slipped in: the computed counts still
            # describe a consistent instant, so answer from them without
            # installing a stale profile.
        return tuple(len(column) for column in values)

    def _profile_refresh_locked(self) -> Optional[Tuple[int, ...]]:
        """The cheap profile paths (version hit, insert-only log replay);
        None when a full rebuild is needed.  Caller holds ``_index_lock``."""
        profile = self.stats.profile
        if profile is not None:
            if profile.version == self._version:
                return profile.distincts()
            if profile.column_values is not None and self._changelog is not None:
                net = self._changelog.net_since(profile.version)
                if net is not None and not net[1]:
                    for row in net[0]:
                        for col, value in enumerate(row):
                            profile.column_values[col].add(value)
                    profile.version = self._version
                    return profile.distincts()
        return None

    def stats_snapshot(self) -> RelationSnapshot:
        """Everything the cost-based planner consults in one consistent
        read -- cardinality, version and distinct counts.  The profile is
        refreshed first (a full rebuild, when one is due, runs outside
        ``_index_lock``); the size and version are then read in a single
        lock acquisition.  ``distincts`` may lag the reported ``version`` by whatever
        mutations landed during an unlocked rebuild -- an estimate-grade
        discrepancy the planner tolerates by design."""
        distincts = self.column_profile()
        with self._index_lock:
            return RelationSnapshot(name=self.name, arity=self.arity, rows=len(self._rows),
                                    version=self._version, distincts=distincts)

    def _bound_positions(self, patterns: Row) -> Tuple[int, ...]:
        return tuple(i for i, pat in enumerate(patterns) if is_ground(pat))

    def select(self, patterns: Iterable[Term], bindings: Optional[Mapping] = None) -> Iterator[Bindings]:
        """Match a subgoal's argument patterns against the stored tuples.

        Substitutes ``bindings`` into the patterns first, then yields one
        extended bindings dict per matching tuple.  Uses a hash index when
        one covers the bound positions; otherwise scans, charging the scan
        to the adaptive-index ledger which may trigger an index build for
        *future* selections.
        """
        base = dict(bindings) if bindings else {}
        patterns = tuple(substitute(p, base) for p in patterns)
        if len(patterns) != self.arity:
            raise ValueError(
                f"arity mismatch for {self.name}: expected {self.arity}, got {len(patterns)}"
            )
        if all(is_ground(p) for p in patterns):
            # Fully bound: a hash membership test, no scan at all.
            if patterns in self._rows:
                self.counters.index_probe_tuples += 1
                yield base
            return
        for row in self._candidate_rows(patterns):
            extended = match_tuple(patterns, row, base)
            if extended is not None:
                yield extended

    def match_rows(self, patterns: Row) -> List[Row]:
        """Stored rows matching a *flat* pattern: every position is either a
        ground term (equality test) or an unconstrained variable.

        The fast path behind simple scans: one list, no per-row bindings
        dict and no per-row frame.  Callers (the compiler) guarantee
        flatness -- variables distinct and not nested inside compounds.
        """
        if len(patterns) != self.arity:
            raise ValueError(
                f"arity mismatch for {self.name}: expected {self.arity}, got {len(patterns)}"
            )
        checks = [
            (i, pattern)
            for i, pattern in enumerate(patterns)
            if not isinstance(pattern, Var)
        ]
        if len(checks) == self.arity:
            if patterns in self._rows:
                self.counters.index_probe_tuples += 1
                return [patterns]
            return []
        candidates = self._candidate_rows(tuple(patterns))
        if not checks:
            return candidates
        if len(checks) == 1:
            # The point-lookup shape; on a learning scan of a large
            # relation the plain comparison is ~4x the generic test below.
            ((i, value),) = checks
            return [row for row in candidates if row[i] == value]
        return [row for row in candidates if all(row[i] == value for i, value in checks)]

    def _candidate_rows(self, patterns: Row) -> List[Row]:
        """Rows that could match fully-substituted ``patterns``: a copy of
        the whole relation, or the hits of one index probe."""
        bound = self._bound_positions(patterns)
        index = None
        if bound:
            with self._index_lock:
                index = self._usable_index(bound)
                if index is None and self.index_policy is not None:
                    ledger = self.stats.ledger(bound)
                    if ledger.earned_index or self.index_policy.should_build(
                        ledger, len(self._rows)
                    ):
                        ledger.earned_index = True
                        index = self.build_index(bound)
                if index is None:
                    # Fall back to a scan; charge it to the adaptive ledger.
                    self.stats.ledger(bound).record_scan(len(self._rows))
        if index is None:
            self.counters.tuples_scanned += len(self._rows)
            return list(self._rows)
        key = tuple(patterns[c] for c in index.columns)
        self.counters.index_lookups += 1
        hits = list(index.probe(key))
        self.counters.index_probe_tuples += len(hits)
        return hits

    def _usable_index(self, bound: Tuple[int, ...]) -> Optional[HashIndex]:
        """An index is usable when its columns are a subset of the bound ones.

        The exact-match index is preferred; otherwise the widest subset wins
        (it is the most selective).  Callers hold ``_index_lock``; the
        snapshot below keeps even an unlocked call safe from a concurrent
        build resizing the dict mid-iteration.
        """
        exact = self._indexes.get(bound)
        if exact is not None:
            return exact
        bound_set = set(bound)
        best = None
        for columns, index in list(self._indexes.items()):
            if set(columns) <= bound_set:
                if best is None or len(columns) > len(best.columns):
                    best = index
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Relation {self.name}/{self.arity} rows={len(self._rows)}>"


def is_flat_query(args: Sequence[Term]) -> bool:
    """Flat pattern: every position is ground or a plain variable and the
    named variables are distinct -- the precondition of
    :meth:`Relation.match_rows`."""
    named = []
    for arg in args:
        if isinstance(arg, Var):
            if not arg.is_anonymous:
                named.append(arg.name)
        elif not is_ground(arg):
            return False
    return len(named) == len(set(named))


def matching_rows(relation: Relation, args: Sequence[Term]) -> List[Row]:
    """The stored rows of ``relation`` that match the query ``args``.

    Flat args route bound positions through the relation's hash indexes
    (:meth:`Relation.match_rows`, which charges
    its scans and probes and returns a fresh list); any other pattern is
    matched row by row over ``rows()``, charged as one full scan.
    """
    args = tuple(args)
    if is_flat_query(args):
        return relation.match_rows(args)
    relation.counters.tuples_scanned += len(relation)
    return [row for row in relation.rows() if match_tuple(args, row) is not None]
