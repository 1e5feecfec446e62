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


class ThreadLocalCounters:
    """A :class:`CostCounters` facade that isolates counting per thread.

    The query server shares one :class:`~repro.storage.database.Database`
    between concurrent sessions; with a single counter block, two
    overlapping queries corrupt each other's before/after deltas (and lose
    increments outright on the read-modify-write).  Installing this object
    as ``Database(counters=...)`` gives every thread -- hence every server
    session, which is pinned to its connection thread -- a private
    :class:`CostCounters`, while :meth:`aggregate` still answers
    whole-server questions.

    The facade is attribute-compatible with :class:`CostCounters`:
    ``counters.inserts += 1``, ``as_tuple()``, ``snapshot()``, ``reset()``
    and ``total_tuple_touches`` all resolve against the calling thread's
    block, so instrumentation sites need no changes.

    A thread that is done counting (a closed server session) calls
    :meth:`retire`, which folds its block into one retired total: the
    number of blocks stays bounded by the live threads, and
    :meth:`aggregate` stays exact.
    """

    def __init__(self):
        object.__setattr__(self, "_tls", threading.local())
        object.__setattr__(self, "_blocks", [])
        object.__setattr__(self, "_retired", CostCounters())
        object.__setattr__(self, "_lock", threading.Lock())

    def _mine(self) -> CostCounters:
        block = getattr(self._tls, "block", None)
        if block is None:
            block = CostCounters()
            self._tls.block = block
            with self._lock:
                self._blocks.append(block)
        return block

    def __getattr__(self, name):
        # Only reached for names not defined on the class: counter fields,
        # CostCounters methods and properties.
        return getattr(self._mine(), name)

    def __setattr__(self, name, value):
        setattr(self._mine(), name, value)

    def retire(self) -> None:
        """Fold the calling thread's block into the retired total; the
        thread's next count starts a fresh block."""
        block = getattr(self._tls, "block", None)
        if block is None:
            return
        self._tls.block = None
        with self._lock:
            # By identity: blocks are dataclasses, equal when their counts are.
            blocks = [other for other in self._blocks if other is not block]
            object.__setattr__(self, "_blocks", blocks)
            object.__setattr__(self, "_retired", self._retired + block)

    def aggregate(self) -> CostCounters:
        """The sum over every thread's block and the retired total (a
        snapshot copy)."""
        with self._lock:
            blocks = [self._retired, *self._blocks]
        total = CostCounters()
        for block in blocks:
            total = total + block
        return total


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
