"""Per-query work accounting: counter deltas + wall-clock per entry point.

Every :class:`~repro.core.result.QueryResult` carries one of these; the
facade diffs the database's :class:`CostCounters` around each entry point
(``query``/``query_magic``/``call``/``rows``) so a query's cost can be
read without resetting the global counters.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.record import Record


class QueryStats(Record):
    """What one entry-point invocation cost.

    ``counters`` is the full per-counter delta (all fields, zeros
    included) in :data:`repro.storage.stats.COUNTER_FIELDS` order;
    ``nonzero`` narrows it to the counters that moved.
    """

    __slots__ = ("query", "resolution", "rows", "elapsed_s", "counters")

    def __init__(self, query: str, resolution: str, rows: int, elapsed_s: float,
                 counters: Optional[Mapping[str, int]] = None) -> None:
        object.__setattr__(self, "query", query)
        # "nail" | "magic" | "edb" | "procedure" | "none"
        object.__setattr__(self, "resolution", resolution)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "elapsed_s", elapsed_s)
        object.__setattr__(self, "counters", {} if counters is None else counters)

    @property
    def nonzero(self) -> Dict[str, int]:
        return {name: value for name, value in self.counters.items() if value}

    @property
    def idb_cache_hits(self) -> int:
        """Strata (and demand entries) this query served straight from the
        incrementally maintained IDB cache."""
        return self.counters.get("idb_cache_hits", 0)

    @property
    def idb_delta_rounds(self) -> int:
        """Seminaive rounds spent repairing cached strata for this query."""
        return self.counters.get("idb_delta_rounds", 0)

    @property
    def glue_hash_joins(self) -> int:
        """Glue VM scan steps this query executed as planned hash joins,
        one per resolved source."""
        return self.counters.get("glue_hash_joins", 0)

    @property
    def total_tuple_touches(self) -> int:
        """Same scalar as ``CostCounters.total_tuple_touches``, per query."""
        get = self.counters.get
        return (
            get("tuples_scanned", 0)
            + get("index_probe_tuples", 0)
            + get("index_build_tuples", 0)
            + get("inserts", 0)
            + get("deletes", 0)
            + get("materialized_tuples", 0)
        )

    def format(self) -> str:
        """A short human-readable block (used by the REPL's ``.last``)."""
        lines = [
            f"query:      {self.query}",
            f"resolution: {self.resolution}",
            f"rows:       {self.rows}",
            f"elapsed:    {self.elapsed_s * 1000.0:.3f} ms",
        ]
        moved = self.nonzero
        if moved:
            lines.append("counters:")
            for name in sorted(moved):
                lines.append(f"  {name:22s} {moved[name]}")
        else:
            lines.append("counters:   (no storage work recorded)")
        return "\n".join(lines)
