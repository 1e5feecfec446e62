"""Rendering of traces: ``EXPLAIN ANALYZE`` reports and REPL profiles.

The renderers consume :class:`~repro.obs.tracer.TraceEvent` lists.  Sinks
receive span events at exit (children first), so rendering sorts on
``seq`` -- the deterministic start order -- and indents by ``depth``.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.obs.query_stats import QueryStats
from repro.obs.tracer import TraceEvent
from repro.opt.plan import fmt_est


def _format_counters(counters) -> str:
    if not counters:
        return ""
    return " ".join(f"{name}={counters[name]}" for name in sorted(counters))


def format_event(event: TraceEvent) -> str:
    pad = "  " * event.depth
    parts = [f"{pad}{event.kind:<14s} {event.name}"]
    if event.rows is not None:
        parts.append(f"rows={event.rows}")
    if event.dur_s:
        parts.append(f"{event.dur_s * 1000.0:.3f}ms")
    counters = _format_counters(event.counters)
    if counters:
        parts.append(f"[{counters}]")
    for key in sorted(event.attrs):
        parts.append(f"{key}={event.attrs[key]}")
    return "  ".join(parts)


def format_event_tree(events: Iterable[TraceEvent]) -> List[str]:
    """One line per event, program order, indented by nesting depth."""
    return [format_event(e) for e in sorted(events, key=lambda e: e.seq)]


def render_profile(stats: QueryStats, events: Sequence[TraceEvent] = ()) -> str:
    """The REPL ``.last`` view: stats block plus the trace tree (if any)."""
    out = [stats.format()]
    if events:
        out.append("trace:")
        out.extend("  " + line for line in format_event_tree(events))
    return "\n".join(out)


def render_joins_table(events: Sequence[TraceEvent]) -> List[str]:
    """The estimated-vs-actual join table, one row per ``join`` event.

    Both engines emit the same event schema (strategy, probe-key columns,
    input sizes, planner estimate, actual output rows), so NAIL! rule
    bodies and Glue statement bodies render through this one table.
    """
    joins = [e for e in sorted(events, key=lambda e: e.seq) if e.kind == "join"]
    if not joins:
        return []
    table = [("join", "strategy", "key", "bindings", "source", "est", "actual")]
    for event in joins:
        attrs = event.attrs
        actual = attrs.get("actual_rows", event.rows)
        table.append(
            (
                event.name,
                str(attrs.get("strategy", "?")),
                str(attrs.get("key", [])),
                str(attrs.get("bindings", "?")),
                str(attrs.get("source", "?")),
                fmt_est(attrs.get("est_rows")),
                "?" if actual is None else str(actual),
            )
        )
    widths = [max(len(row[col]) for row in table) for col in range(len(table[0]))]
    lines = ["Joins (estimated vs actual)", "---------------------------"]
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return lines


def render_batch_kernel_table(events: Sequence[TraceEvent]) -> List[str]:
    """Columnar kernel activity, one row per ``batch_kernel`` event.

    Shows which specialized kernel ran each literal (probe / broadcast /
    anti-member / anti-static), the batch width it consumed, the rows it
    produced, and whether the kernel's hash state came out of the
    relation's table cache (``hit``), was brought forward from an older
    version by appending inserted rows (``extend``), or was rebuilt
    (``miss``; ``-`` for stateless kernels).
    """
    kernels = [
        e for e in sorted(events, key=lambda e: e.seq) if e.kind == "batch_kernel"
    ]
    if not kernels:
        return []
    table = [("literal", "kernel", "batch", "rows", "cache")]
    for event in kernels:
        attrs = event.attrs
        cache = attrs.get("cache")
        table.append(
            (
                event.name,
                str(attrs.get("kernel", "?")),
                str(attrs.get("batch", "?")),
                "?" if event.rows is None else str(event.rows),
                "-" if cache is None else str(cache),
            )
        )
    widths = [max(len(row[col]) for row in table) for col in range(len(table[0]))]
    lines = ["Batch kernels (columnar execution)",
             "----------------------------------"]
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return lines


def render_explain_analyze(
    text: str,
    stats: QueryStats,
    events: Sequence[TraceEvent],
    plan: str = "",
) -> str:
    """The full EXPLAIN ANALYZE report for one query.

    Sections: a header (resolution, rows, elapsed, total counter deltas),
    the static plan as the compiler saw it, and the execution tree with
    per-step actual row counts, per-step counter deltas and timings.
    """
    lines = [f"EXPLAIN ANALYZE {text.strip()}"]
    lines.append(
        f"resolution: {stats.resolution}   rows: {stats.rows}   "
        f"time: {stats.elapsed_s * 1000.0:.3f} ms"
    )
    moved = stats.nonzero
    if moved:
        lines.append("counters:   " + _format_counters(moved))
    if plan:
        lines.append("")
        lines.append("Plan")
        lines.append("----")
        lines.extend(plan.splitlines())
    joins = render_joins_table(events)
    if joins:
        lines.append("")
        lines.extend(joins)
    kernels = render_batch_kernel_table(events)
    if kernels:
        lines.append("")
        lines.extend(kernels)
    lines.append("")
    lines.append("Execution")
    lines.append("---------")
    tree = format_event_tree(events)
    if tree:
        lines.extend(tree)
    else:
        lines.append("(no events recorded -- results served from cache?)")
    return "\n".join(lines)
