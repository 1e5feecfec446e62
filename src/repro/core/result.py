"""Query results: rows plus execution metadata.

:class:`QueryResult` is the return type of every facade entry point
(``query``, ``query_magic``, ``call``, ``rows``).  It is a
``list`` subclass, so every existing call site -- indexing, ``len``,
iteration, equality against a plain list -- keeps working unchanged,
while new code can read ``.stats``, ``.plan``, ``.trace`` and
``.resolution`` off the same object.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.query import rows_to_python
from repro.obs.query_stats import QueryStats
from repro.obs.tracer import TraceEvent
from repro.terms.term import Term

Row = Tuple[Term, ...]


class QueryResult(list):
    """Rows of a query plus how they were produced.

    Attributes
    ----------
    stats:      :class:`QueryStats` for this entry point (counter deltas,
                wall-clock, resolution), or ``None``.
    resolution: how the query was answered -- ``"nail"``, ``"magic"``,
                ``"edb"``, ``"procedure"`` or ``"none"``.
    trace:      the :class:`TraceEvent` slice for this query when tracing
                was enabled, else ``[]``.
    plan:       lazily rendered static plan text (NAIL! rules or the
                compiled procedure's EXPLAIN), ``""`` when unavailable.
    """

    def __init__(
        self,
        rows=(),
        stats: Optional[QueryStats] = None,
        resolution: Optional[str] = None,
        trace: Optional[List[TraceEvent]] = None,
        plan_fn: Optional[Callable[[], str]] = None,
    ):
        super().__init__(rows)
        self.stats = stats
        self.resolution = resolution
        self.trace: List[TraceEvent] = trace if trace is not None else []
        self._plan_fn = plan_fn
        self._plan: Optional[str] = None

    @property
    def rows(self) -> List[Row]:
        """The rows as a plain list (a copy)."""
        return list(self)

    @property
    def plan(self) -> str:
        if self._plan is None:
            self._plan = self._plan_fn() if self._plan_fn is not None else ""
        return self._plan

    @property
    def joins(self) -> List[dict]:
        """The query's join steps, in execution order, as dicts.

        One entry per traced ``join`` event (requires tracing), with the
        unified schema both engines emit: ``strategy``, ``key`` (probe
        columns), ``bindings``/``source`` input sizes, and ``est_rows``
        vs ``actual_rows`` -- the chosen join order made observable.
        """
        out = []
        for event in sorted(self.trace, key=lambda e: e.seq):
            if event.kind != "join":
                continue
            entry = {"name": event.name, "rows": event.rows}
            entry.update(event.attrs)
            out.append(entry)
        return out

    def to_python(self) -> List[tuple]:
        """Rows lowered to plain Python values (atoms -> str, nums -> int)."""
        return rows_to_python(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" via {self.resolution}" if self.resolution else ""
        return f"<QueryResult {len(self)} rows{tag}>"
