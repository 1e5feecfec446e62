"""Cost counters shared by the storage layer and the virtual machine.

The paper's evaluation claims (Section 9/10) are about *costs* -- tuples
loaded and stored across pipeline breaks, duplicate-elimination work, scan
vs. index trade-offs -- so every storage and execution primitive reports
into one of these counter blocks.  Benchmarks read them to regenerate the
paper's qualitative tables.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import FrozenSet, Mapping, Optional, Tuple


@dataclass
class CostCounters:
    """Abstract work counters (not wall-clock): deterministic across runs."""

    tuples_scanned: int = 0
    index_lookups: int = 0
    index_probe_tuples: int = 0
    index_builds: int = 0
    index_build_tuples: int = 0
    inserts: int = 0
    duplicate_inserts: int = 0
    deletes: int = 0
    materializations: int = 0
    materialized_tuples: int = 0
    pipeline_breaks: int = 0
    dedup_removed: int = 0
    proc_calls: int = 0
    dynamic_dispatches: int = 0  # per-row run-time predicate-class checks
    # Glue VM statement bodies executed as planned hash joins: one count
    # per (scan step, resolved source) that probed a hash table instead of
    # matching per accumulated row (see repro.vm.plan).
    glue_hash_joins: int = 0
    # IDB cache maintenance (see repro.nail.engine): strata served from
    # cache, strata repaired by delta propagation (with the seminaive
    # rounds that took), and strata discarded for full recomputation.
    idb_cache_hits: int = 0
    idb_delta_repairs: int = 0
    idb_delta_rounds: int = 0
    idb_invalidations: int = 0
    # Delta-precision losses: an EDB change log overflowed (or the
    # relation was dropped) so exact per-row deltas were unavailable and
    # dependent strata had to be rebuilt from scratch.  Subscribers over
    # those predicates fall back to snapshot diffing or a resync event.
    idb_resyncs: int = 0
    # Push-based subscriptions (see repro.sub): notifications delivered to
    # subscriber sinks/queues, including resync markers.
    notifications_pushed: int = 0
    # MVCC snapshot reads (see repro.mvcc): read-only requests served from
    # a pinned published version (no read-lock acquisition), and catalog
    # pins taken.
    snapshot_reads: int = 0
    snapshot_pins: int = 0
    # Run-time planning (see repro.opt.cache): bodies served from the plan
    # cache, and bodies planned because their key was new.
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def as_tuple(self) -> tuple:
        """A cheap positional snapshot (field order of ``COUNTER_FIELDS``).

        The tracer takes these at span boundaries, so this avoids building
        a dict per instrumentation point.
        """
        return tuple(getattr(self, name) for name in COUNTER_FIELDS)

    def __add__(self, other: "CostCounters") -> "CostCounters":
        merged = CostCounters()
        for f in fields(self):
            setattr(merged, f.name, getattr(self, f.name) + getattr(other, f.name))
        return merged

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


COUNTER_FIELDS: tuple = tuple(f.name for f in fields(CostCounters))


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
            return CostCounters(*(
                getattr(self._retired, name) + sum(block[name] for block in blocks)
                for name in COUNTER_FIELDS
            ))


def counter_delta(before: tuple, after: tuple) -> dict:
    """Full per-counter difference of two ``as_tuple`` snapshots."""
    return {name: after[i] - before[i] for i, name in enumerate(COUNTER_FIELDS)}


def nonzero_delta(before: tuple, after: tuple) -> dict:
    """Like :func:`counter_delta` but only the counters that moved."""
    out = {}
    for i, name in enumerate(COUNTER_FIELDS):
        diff = after[i] - before[i]
        if diff:
            out[name] = diff
    return out


@dataclass
class ScanCostLedger:
    """Per-(relation, column-set) record of cumulative scanning cost.

    Drives the adaptive index policy: the ledger accumulates the cost of
    selections answered by scanning, and the policy compares it against the
    cost of building an index on those columns.
    """

    cumulative_scan_cost: float = 0.0
    scans: int = 0
    # The policy has already decided these columns earn an index.  Frozen
    # MVCC clones share their relation's ledgers but start without
    # indexes: the verdict lets each new generation build at its first
    # lookup instead of re-learning it by scanning (the relation may have
    # outgrown the accumulated cost by then).
    earned_index: bool = False

    def record_scan(self, tuples: int) -> None:
        self.cumulative_scan_cost += tuples
        self.scans += 1


@dataclass
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

    version: int = -1
    column_values: Optional[list] = None  # one set of values per column
    counts: Optional[Tuple[int, ...]] = None

    def distincts(self) -> Tuple[int, ...]:
        if self.counts is not None:
            return self.counts
        return tuple(len(values) for values in self.column_values or ())


@dataclass
class RelationStats:
    """Per-relation bookkeeping used by adaptive optimization."""

    ledgers: dict = field(default_factory=dict)  # tuple[int, ...] -> ScanCostLedger
    profile: Optional[CardinalityProfile] = None

    def ledger(self, columns: tuple) -> ScanCostLedger:
        entry = self.ledgers.get(columns)
        if entry is None:
            entry = ScanCostLedger()
            self.ledgers[columns] = entry
        return entry


@dataclass(frozen=True)
class RelationSnapshot:
    """One consistent, planner-facing read of a relation's statistics.

    Built by :meth:`~repro.storage.relation.Relation.stats_snapshot` in a
    single acquisition of the relation's index lock, so the cardinality,
    distinct counts, scan-cost ledgers and available indexes all describe
    the same instant.  (The planner previously consulted these fields one
    by one while adaptive index builds were mutating them from concurrent
    read paths.)  ``scan_costs`` maps a column set to its ledger reading
    ``(cumulative_scan_cost, scans)``.
    """

    name: object
    arity: int
    rows: int
    version: int = -1
    distincts: Optional[Tuple[Optional[int], ...]] = None
    indexed: FrozenSet[Tuple[int, ...]] = frozenset()
    scan_costs: Mapping = field(default_factory=dict)

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
