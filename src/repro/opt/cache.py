"""When a body is planned again at run time: one rule for both engines.

Both engines need plans while they run: NAIL! for a rule body each time
a fixpoint round fires it, and the Glue VM for each statement it compiled
without some relation's size (paper Section 10: "adaptive optimization
... at run-time based on changing properties of the database").  A
:class:`PlanCache` decides when such a body is planned.  It is planned
once per key and served from the cache until the key changes.  The key
is:

* the body's identity,
* the bound-variable set,
* the pinned seminaive delta position,
* a size bucket for the input size, and
* a size bucket per scanned relation: ``rows.bit_length()``, with an
  unknown size in a bucket of its own.  A HiLog literal's relation is
  run-time data; it has no size and adds nothing to the key.

A plan is correct for any sizes, so inside a bucket only the chosen order
and the estimates can differ from a fresh plan's.  Rows never do.  Buckets are logarithmic,
so each body has a bounded number of keys and the cache needs no size
limit.  Hits and misses are charged to ``plan_cache_hits`` and
``plan_cache_misses``.  Compile-time planning calls :func:`optimize`
directly, once per compile.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, FrozenSet, Optional, Sequence

from repro.lang.ast import PredSubgoal
from repro.opt import passes
from repro.opt.plan import Plan
from repro.opt.stats import StatsContext
from repro.record import Record
from repro.storage.stats import CostCounters
from repro.terms.term import is_ground


def _size_bucket(size: Optional[float]) -> Optional[int]:
    """The logarithmic bucket of a size; None (unknown) is its own."""
    return None if size is None else int(size).bit_length()


class CachedPlan(Record):
    """One cache entry: the plan, and what the engine built from it (the
    VM's compiled statement variant; None for NAIL!).  ``body`` keeps the
    keyed body alive, so its identity is not reused while the entry lives."""

    __slots__ = ("body", "plan", "built")

    def __init__(self, body: Sequence, plan: Plan, built: object = None) -> None:
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "built", built)


class PlanCache:
    """Plans per (body, bound set, pinned position, size buckets).

    One lives on each :class:`~repro.nail.engine.NailEngine` and on each
    :class:`~repro.vm.plan.CompiledProgram`.  Lookups take no lock; a
    miss plans, and builds, under the cache's one lock, so concurrent
    sessions never plan or build one key twice.
    """

    __slots__ = ("counters", "_entries", "_lock")

    def __init__(self, counters: Optional[CostCounters] = None):
        self.counters = counters if counters is not None else CostCounters()
        self._entries: Dict[tuple, CachedPlan] = {}
        self._lock = threading.Lock()

    def entries(self):
        """Every cached entry, in the order they were planned."""
        return list(self._entries.values())

    def get(
        self,
        body: Sequence,
        stats=None,
        bound: FrozenSet[str] = frozenset(),
        *,
        input_size: float = 1,
        pinned_first: Optional[int] = None,
        build: Optional[Callable[[Plan], object]] = None,
        counters: Optional[CostCounters] = None,
        **options,
    ) -> CachedPlan:
        """The entry for ``body`` at the sizes ``stats`` reports now.

        ``stats``, ``bound``, ``input_size`` and ``pinned_first`` are as
        for :func:`~repro.opt.passes.optimize`, and ``options`` are its
        remaining keywords; they must not vary for one body.  On a miss,
        ``build(plan)`` runs under the lock and its result is kept next
        to the plan.  The hit or miss is charged to ``counters``, by
        default the cache's own.
        """
        counters = self.counters if counters is None else counters
        ctx = stats if isinstance(stats, StatsContext) else StatsContext(stats)
        key = (
            id(body),
            frozenset(bound),
            pinned_first,
            _size_bucket(input_size),
            tuple(
                _size_bucket(getattr(ctx.lookup(subgoal.pred, len(subgoal.args)), "rows", None))
                for subgoal in body
                if isinstance(subgoal, PredSubgoal)
                and not subgoal.negated
                and is_ground(subgoal.pred)
            ),
        )
        entry = self._entries.get(key)
        if entry is None:
            with self._lock:
                entry = self._entries.get(key)
                if entry is None:
                    plan = passes.optimize(
                        body, ctx, bound, input_size=input_size,
                        pinned_first=pinned_first, **options,
                    )
                    entry = CachedPlan(body, plan, build(plan) if build else None)
                    self._entries[key] = entry
                    counters.plan_cache_misses += 1
                    return entry
        counters.plan_cache_hits += 1
        return entry
