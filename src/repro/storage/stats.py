"""Cost counters shared by the storage layer and the virtual machine.

The paper's evaluation claims (Section 9/10) are about *costs* -- tuples
loaded and stored across pipeline breaks, duplicate-elimination work, scan
vs. index trade-offs -- so every storage and execution primitive reports
into one of these counter blocks.  Benchmarks read them to regenerate the
paper's qualitative tables.
"""

from __future__ import annotations

import threading
from operator import itemgetter, sub
from typing import Optional, Tuple

from repro.record import Record


class CostCounters:
    """Abstract work counters (not wall-clock): deterministic across runs.

    Each counter is a plain instance attribute, so ``counters.inserts += 1``
    is C attribute access.  The class has no ``__slots__``:
    :class:`ThreadLocalCounters` keeps each thread's counters in its own
    ``__dict__``.  The annotations below are the counters, in
    ``COUNTER_FIELDS`` order.
    """

    tuples_scanned: int
    index_lookups: int
    index_probe_tuples: int
    index_builds: int
    index_build_tuples: int
    inserts: int
    duplicate_inserts: int
    deletes: int
    materializations: int
    materialized_tuples: int
    pipeline_breaks: int
    dedup_removed: int
    proc_calls: int
    dynamic_dispatches: int  # per-row run-time predicate-class checks
    # Glue VM statement bodies executed as planned hash joins: one count
    # per (scan step, resolved source) that probed a hash table instead of
    # matching per accumulated row (see repro.vm.plan).
    glue_hash_joins: int
    # IDB cache maintenance (see repro.nail.engine): strata served from
    # cache, strata repaired by delta propagation (with the seminaive
    # rounds that took), and strata discarded for full recomputation.
    idb_cache_hits: int
    idb_delta_repairs: int
    idb_delta_rounds: int
    idb_invalidations: int
    # Delta-precision losses: an EDB change log overflowed (or the
    # relation was dropped) so exact per-row deltas were unavailable and
    # dependent strata had to be rebuilt from scratch.  Subscribers over
    # those predicates fall back to snapshot diffing or a resync event.
    idb_resyncs: int
    # Push-based subscriptions (see repro.sub): notifications delivered to
    # subscriber sinks/queues, including resync markers.
    notifications_pushed: int
    # MVCC snapshot reads (see repro.mvcc): read-only requests served from
    # a pinned published version (no read-lock acquisition), and catalog
    # pins taken.
    snapshot_reads: int
    snapshot_pins: int
    # Run-time planning (see repro.opt.cache): bodies served from the plan
    # cache, and bodies planned because their key was new.
    plan_cache_hits: int
    plan_cache_misses: int

    def __init__(self, **counts: int) -> None:
        """Every counter at 0, except those given by name."""
        unknown = counts.keys() - COUNTER_FIELDS
        if unknown:
            raise TypeError(f"unknown counters: {sorted(unknown)}")
        self.__dict__.update(dict.fromkeys(COUNTER_FIELDS, 0), **counts)

    def reset(self) -> None:
        self.__dict__.update(dict.fromkeys(COUNTER_FIELDS, 0))

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def as_tuple(self) -> tuple:
        """A cheap positional snapshot (field order of ``COUNTER_FIELDS``).

        The tracer takes these at span boundaries, so this is one C call
        over the calling thread's ``__dict__``, with no dict built.
        """
        return _COUNTER_VALUES(self.__dict__)

    def __add__(self, other: "CostCounters") -> "CostCounters":
        return CostCounters(**{
            name: getattr(self, name) + getattr(other, name) for name in COUNTER_FIELDS
        })

    @property
    def total_tuple_touches(self) -> int:
        """A single scalar for who-wins comparisons: every tuple load/store."""
        return (
            self.tuples_scanned
            + self.index_probe_tuples
            + self.index_build_tuples
            + self.inserts
            + self.deletes
            + self.materialized_tuples
        )


COUNTER_FIELDS: tuple = tuple(CostCounters.__annotations__)
_COUNTER_VALUES = itemgetter(*COUNTER_FIELDS)


class ThreadLocalCounters(threading.local, CostCounters):
    """A :class:`CostCounters` whose fields are private to each thread.

    The query server shares one :class:`~repro.storage.database.Database`
    between concurrent sessions; with a single counter block, two
    overlapping queries corrupt each other's before/after deltas (and lose
    increments outright on the read-modify-write).  Installing this object
    as ``Database(counters=...)`` gives every thread -- hence every server
    session, which is pinned to its connection thread -- its own fields,
    while :meth:`aggregate` still answers whole-server questions.

    As a :class:`threading.local`, each thread's fields are plain
    attributes of its own ``__dict__`` (its *block*), so
    ``counters.inserts += 1`` is C attribute access with no Python frame,
    and ``as_tuple()``, ``snapshot()``, ``reset()`` and
    ``total_tuple_touches`` read the calling thread's block only.
    ``threading.local`` runs ``__init__`` again on each thread's first
    touch; the registry it fills lives in slots, which every thread shares,
    so ``__new__`` builds it once.

    A thread that is done counting (a closed server session) calls
    :meth:`retire`, which folds its counts into one retired total.  A
    count it makes later still reaches :meth:`aggregate`, and the blocks
    of threads that have ended are folded in too, so the blocks kept stay
    bounded by the live threads and :meth:`aggregate` stays exact.
    """

    __slots__ = ("_lock", "_blocks", "_late", "_retired")

    def __new__(cls):
        self = super().__new__(cls)
        self._lock = threading.Lock()
        self._blocks = {}  # thread -> its block, until it retires
        self._late = {}  # retired thread still alive -> its block
        self._retired = CostCounters()
        return self

    def __init__(self):
        CostCounters.__init__(self)
        with self._lock:
            self._fold_ended()
            self._blocks[threading.current_thread()] = self.__dict__

    def _fold_ended(self) -> None:
        """Fold the blocks of threads that have ended into the retired total
        (the caller holds the lock)."""
        for blocks in (self._blocks, self._late):
            for thread in [thread for thread in blocks if not thread.is_alive()]:
                self._retired = self._retired + CostCounters(**blocks.pop(thread))

    def retire(self) -> None:
        """Fold the calling thread's counts into the retired total; its
        block, now zero, still collects what the thread counts later."""
        block = self.__dict__  # registers the thread on its first touch
        thread = threading.current_thread()
        with self._lock:
            self._retired = self._retired + CostCounters(**block)
            self.reset()
            self._blocks.pop(thread, None)
            self._late[thread] = block
            self._fold_ended()

    def aggregate(self) -> CostCounters:
        """The sum over every thread's block and the retired total (a
        snapshot copy)."""
        with self._lock:
            self._fold_ended()
            blocks = [*self._blocks.values(), *self._late.values()]
            return CostCounters(**{
                name: getattr(self._retired, name) + sum(block[name] for block in blocks)
                for name in COUNTER_FIELDS
            })


def counter_delta(before: tuple, after: tuple) -> dict:
    """Full per-counter difference of two ``as_tuple`` snapshots."""
    return dict(zip(COUNTER_FIELDS, map(sub, after, before)))


def nonzero_delta(before: tuple, after: tuple) -> dict:
    """Like :func:`counter_delta` but only the counters that moved."""
    out = {}
    for i, name in enumerate(COUNTER_FIELDS):
        diff = after[i] - before[i]
        if diff:
            out[name] = diff
    return out


class ScanCostLedger:
    """Per-(relation, column-set) record of cumulative scanning cost.

    Drives the adaptive index policy: the ledger accumulates the cost of
    selections answered by scanning, and the policy compares it against the
    cost of building an index on those columns.
    """

    __slots__ = ("cumulative_scan_cost", "scans", "earned_index")

    def __init__(self, cumulative_scan_cost: float = 0.0, scans: int = 0,
                 earned_index: bool = False) -> None:
        self.cumulative_scan_cost = cumulative_scan_cost
        self.scans = scans
        # The policy has already decided these columns earn an index.  Frozen
        # MVCC clones share their relation's ledgers but start without
        # indexes: the verdict lets each new generation build at its first
        # lookup instead of re-learning it by scanning (the relation may have
        # outgrown the accumulated cost by then).
        self.earned_index = earned_index

    def record_scan(self, tuples: int) -> None:
        self.cumulative_scan_cost += tuples
        self.scans += 1


class CardinalityProfile:
    """Per-column distinct-value sets backing the planner's selectivity
    estimates.

    Maintained off the relation's version counter and change log: a profile
    built at version ``v`` is refreshed by replaying the net row changes
    since ``v``.  Insert-only nets extend the value sets in place; nets
    containing deletes (or an exhausted change-log window) force a rebuild,
    since a distinct count cannot be decremented without per-value counts.

    A frozen MVCC clone never changes, so it carries only ``counts``, the
    distinct counts its live relation had at freeze time.
    """

    __slots__ = ("version", "column_values", "counts")

    def __init__(self, version: int = -1, column_values: Optional[list] = None,
                 counts: Optional[Tuple[int, ...]] = None) -> None:
        self.version = version
        self.column_values = column_values  # one set of values per column
        self.counts = counts

    def distincts(self) -> Tuple[int, ...]:
        if self.counts is not None:
            return self.counts
        return tuple(len(values) for values in self.column_values or ())


class RelationStats:
    """Per-relation bookkeeping used by adaptive optimization."""

    __slots__ = ("ledgers", "profile")

    def __init__(self, ledgers: Optional[dict] = None,
                 profile: Optional[CardinalityProfile] = None) -> None:
        self.ledgers = {} if ledgers is None else ledgers  # tuple[int, ...] -> ScanCostLedger
        self.profile = profile

    def ledger(self, columns: tuple) -> ScanCostLedger:
        entry = self.ledgers.get(columns)
        if entry is None:
            entry = ScanCostLedger()
            self.ledgers[columns] = entry
        return entry


class RelationSnapshot(Record):
    """One consistent, planner-facing read of a relation's statistics.

    Built by :meth:`~repro.storage.relation.Relation.stats_snapshot` in a
    single acquisition of the relation's index lock, so the cardinality
    and version describe the same instant.
    """

    __slots__ = ("name", "arity", "rows", "version", "distincts")

    def __init__(self, name: object, arity: int, rows: int, version: int = -1,
                 distincts: Optional[Tuple[Optional[int], ...]] = None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "distincts", distincts)

    def distinct(self, col: int) -> Optional[int]:
        if self.distincts is None or not 0 <= col < len(self.distincts):
            return None
        return self.distincts[col]

    def est_matches(self, probe_cols: Tuple[int, ...]) -> float:
        """Expected rows matching one probe key on ``probe_cols``, under
        uniform value frequencies and independent columns:
        ``rows / prod(distinct(c))``."""
        est = float(self.rows)
        for col in probe_cols:
            d = self.distinct(col)
            if d:
                est /= d
        return est
