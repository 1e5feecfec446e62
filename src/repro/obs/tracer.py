"""Structured tracing of query execution.

The paper's evaluation (Sections 9-10) is an argument about *costs*; the
tracer makes those costs attributable to an individual query, stratum,
plan step or fixpoint round instead of one global counter blob.

Architecture: every :class:`~repro.storage.database.Database` owns one
:class:`Tracer` hub that is threaded through the VM, the NAIL! engine and
the relations.  The hub is disabled (``enabled = False``) until a sink is
installed.  A unit of work runs once, inside ``with tracer.span(...)``,
whether or not anyone traces: a disabled hub hands out the shared
:data:`NULL_SPAN`, which drops what the site writes to it.  Instant
events and labels that cost something to build guard on
``tracer.enabled``, so tracing is near zero-cost when off.

Event schema (deterministic in structure; wall-clock fields vary):

========== =========================================================
``seq``    start order of the event (spans are sequenced at *enter*)
``depth``  nesting depth at the time the event started
``kind``   ``query`` | ``query_magic`` | ``call`` | ``rows`` |
           ``proc`` | ``stmt`` | ``repeat`` | ``step`` |
           ``pipeline_break`` | ``index_build`` | ``stratum`` |
           ``round`` | ``incremental_round`` | ``pass`` | ``rule`` |
           ``idb_cache_hit`` | ``idb_stale`` | ``demand`` | ``magic`` |
           ``idb_resync`` | ``subscription`` | ``join`` |
           ``batch_kernel``
``name``   human-readable label (plan-step text, predicate name, ...)
``rows``   rows produced by the traced unit (``None`` when n/a)
``dur_ms`` wall-clock duration in milliseconds (0 for instant events)
``counters`` nonzero :class:`CostCounters` deltas over the unit
========== =========================================================

Kind-specific attributes (``resolution``, ``module``, ``rounds``, ...)
are merged into the JSON object emitted by :class:`JsonLinesSink`.

Sinks receive span events at span *exit* (children before parents);
consumers rebuild the tree by sorting on ``seq`` and indenting by
``depth``.
"""

from __future__ import annotations

import json
import threading
from time import perf_counter
from typing import Dict, List, Optional

# NOTE: this module must not import repro.storage at module level --
# storage imports the tracer, and the storage package initializer pulls in
# every storage submodule, so a top-level import here would be circular.
# ``counters`` is duck-typed: any object with ``as_tuple()``.


class TraceEvent:
    """One completed span or instant event."""

    __slots__ = ("kind", "name", "seq", "depth", "dur_s", "rows", "counters", "attrs")

    def __init__(
        self,
        kind: str,
        name: str,
        seq: int,
        depth: int,
        dur_s: float = 0.0,
        rows: Optional[int] = None,
        counters: Optional[Dict[str, int]] = None,
        attrs: Optional[dict] = None,
    ):
        self.kind = kind
        self.name = name
        self.seq = seq
        self.depth = depth
        self.dur_s = dur_s
        self.rows = rows
        self.counters = counters if counters is not None else {}
        self.attrs = attrs if attrs is not None else {}

    def to_dict(self) -> dict:
        out = {
            "seq": self.seq,
            "depth": self.depth,
            "kind": self.kind,
            "name": self.name,
            "rows": self.rows,
            "dur_ms": round(self.dur_s * 1000.0, 3),
            "counters": self.counters,
        }
        out.update(self.attrs)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceEvent #{self.seq} d{self.depth} {self.kind} {self.name!r}>"


class TraceSink:
    """Receives completed events; implementations decide what to keep."""

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError


class CollectingSink(TraceSink):
    """Keeps every event in memory (drives ``.trace`` and EXPLAIN ANALYZE)."""

    def __init__(self):
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()


class JsonLinesSink(TraceSink):
    """Writes one JSON object per event to a text stream (``--trace-json``)."""

    def __init__(self, stream):
        self.stream = stream

    def emit(self, event: TraceEvent) -> None:
        self.stream.write(json.dumps(event.to_dict(), default=str) + "\n")
        flush = getattr(self.stream, "flush", None)
        if flush is not None:
            flush()


class _Span:
    """A live span: counter snapshot + clock at enter, event at exit."""

    __slots__ = ("_tracer", "kind", "name", "attrs", "rows", "_seq", "_depth", "_t0", "_c0")

    def __init__(self, tracer: "Tracer", kind: str, name: str, attrs: dict):
        self._tracer = tracer
        self.kind = kind
        self.name = name
        self.attrs = attrs
        self.rows: Optional[int] = None

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._seq = tracer._next_seq()
        self._depth = tracer._depth
        tracer._depth = self._depth + 1
        counters = tracer.counters
        self._c0 = counters.as_tuple() if counters is not None else None
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = perf_counter() - self._t0
        tracer = self._tracer
        tracer._depth -= 1
        if self._c0 is not None:
            from repro.storage.stats import nonzero_delta

            delta = nonzero_delta(self._c0, tracer.counters.as_tuple())
        else:
            delta = {}
        tracer._dispatch(
            TraceEvent(self.kind, self.name, self._seq, self._depth, dur,
                       self.rows, delta, self.attrs)
        )
        return False


class _DiscardingDict(dict):
    """An always-empty dict: item writes are accepted and dropped."""

    __slots__ = ()

    def __setitem__(self, key, value) -> None:
        pass


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled.

    Span sites run the same code whether or not anyone traces, so this
    span takes writes to ``rows`` and ``attrs`` and keeps none of them.
    """

    __slots__ = ()
    attrs = _DiscardingDict()

    @property
    def rows(self) -> None:
        return None

    @rows.setter
    def rows(self, value) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Tracer:
    """The tracing hub: span/event emission fanned out to sinks.

    ``enabled`` is a plain attribute kept in sync with the sink list so
    hot paths pay one attribute read when tracing is off.

    The hub is shared by every session of the concurrent query server, so
    its mutable pieces are partitioned by thread: nesting depth and the
    session label live in thread-local storage, sequence numbers come from
    one lock-guarded counter (still globally monotonic), and *local sinks*
    (:meth:`add_local_sink`) receive only the calling thread's events --
    that is how each server session collects its own ``.trace`` without
    seeing its neighbours'.  Events produced while a session label is set
    (:meth:`set_session`) carry it as a ``session`` attribute, so globally
    installed sinks (``--trace-json``) can still demultiplex.
    """

    def __init__(self, counters=None):
        self.counters = counters  # duck-typed: needs .as_tuple(); may be None
        self.sinks: List[TraceSink] = []
        self.enabled = False
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._tls = threading.local()
        self._local_sink_count = 0

    # -------------------------------------------------------------- #
    # thread-partitioned state
    # -------------------------------------------------------------- #

    def _next_seq(self) -> int:
        with self._seq_lock:
            self._seq += 1
            return self._seq

    @property
    def _depth(self) -> int:
        return getattr(self._tls, "depth", 0)

    @_depth.setter
    def _depth(self, value: int) -> None:
        self._tls.depth = value

    @property
    def session(self) -> Optional[str]:
        """The calling thread's session label, or None."""
        return getattr(self._tls, "session", None)

    def set_session(self, label: Optional[str]) -> None:
        """Tag this thread's subsequent events with ``session=label``."""
        self._tls.session = label

    # -------------------------------------------------------------- #
    # sink management
    # -------------------------------------------------------------- #

    def add_sink(self, sink: TraceSink) -> TraceSink:
        if sink not in self.sinks:
            self.sinks.append(sink)
        self.enabled = True
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        if sink in self.sinks:
            self.sinks.remove(sink)
        self._refresh_enabled()

    def add_local_sink(self, sink: TraceSink) -> TraceSink:
        """Install a sink that receives only this thread's events."""
        sinks = getattr(self._tls, "sinks", None)
        if sinks is None:
            sinks = self._tls.sinks = []
        if sink not in sinks:
            sinks.append(sink)
            with self._seq_lock:
                self._local_sink_count += 1
        self.enabled = True
        return sink

    def remove_local_sink(self, sink: TraceSink) -> None:
        sinks = getattr(self._tls, "sinks", None)
        if sinks and sink in sinks:
            sinks.remove(sink)
            with self._seq_lock:
                self._local_sink_count -= 1
        self._refresh_enabled()

    def _refresh_enabled(self) -> None:
        self.enabled = bool(self.sinks) or self._local_sink_count > 0

    # -------------------------------------------------------------- #
    # emission
    # -------------------------------------------------------------- #

    def span(self, kind: str, name: str, **attrs):
        """A context manager timing a unit of work; set ``.rows`` inside."""
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, kind, name, attrs)

    def event(
        self,
        kind: str,
        name: str,
        rows: Optional[int] = None,
        counters: Optional[Dict[str, int]] = None,
        dur_s: float = 0.0,
        **attrs,
    ) -> None:
        """An instant (zero-duration) event."""
        if not self.enabled:
            return
        self._dispatch(
            TraceEvent(kind, name, self._next_seq(), self._depth, dur_s, rows,
                       counters, attrs)
        )

    def _dispatch(self, event: TraceEvent) -> None:
        label = self.session
        if label is not None and "session" not in event.attrs:
            event.attrs["session"] = label
        for sink in self.sinks:
            sink.emit(event)
        for sink in getattr(self._tls, "sinks", ()):
            sink.emit(event)


# The shared always-disabled tracer: the default for relations created
# outside any database/system wiring.  Do not install sinks on it.
NULL_TRACER = Tracer()
