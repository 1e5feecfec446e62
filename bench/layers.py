"""Per-layer metrics from a traced phase.

A layer is a package under ``src/repro``; a metric is ``<layer>.<metric>``.
Times are mean *self* time per op of the workload (page, request,
transaction, batch) in ms; counts are per op unless the name says
otherwise.  Sources: the spans of ``bench/spans.py`` cut to the measured
window, the public ``stats`` op read before and after the phase, and what
the load generator itself saw (``client.*``, from the untraced reference
phase of the same run).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from harness import median, tail

# metric -> span name whose self time it is
SELF_MS = {
    "server.decode_ms": "server.decode",
    "server.dispatch_ms": "server.dispatch",
    "server.payload_ms": "server.payload",
    "server.encode_ms": "server.encode",
    "server.lock_wait_ms": "server.lock_wait",
    "lang.parse_ms": "lang.parse",
    "core.compile_ms": "core.compile",
    "core.facade_ms": "core.facade",
    "vm.compile_ms": "vm.compile",
    "vm.call_ms": "vm.call",
    "opt.plan_ms": "opt.plan",
    "nail.query_ms": "nail.query",
    "nail.magic_ms": "nail.magic",
    "col.kernel_ms": "col.kernel",
    "col.table_ms": "col.table",
    "col.intern_ms": "col.intern",
    "glue.agg_ms": "glue.agg",
    "storage.insert_ms": "storage.insert",
    "storage.checkpoint_ms": "storage.checkpoint",
    "storage.load_ms": "storage.load",
    "txn.commit_ms": "txn.commit",
    "txn.wal_append_ms": "txn.wal_append",
    "txn.fsync_ms": "txn.fsync",
    "txn.replay_ms": "txn.replay",
    "mvcc.publish_ms": "mvcc.publish",
    "mvcc.pin_ms": "mvcc.pin",
    "sub.on_commit_ms": "sub.on_commit",
}

# metric -> span name whose calls it counts
CALLS = {
    "lang.parse_calls": "lang.parse",
    "opt.plan_calls": "opt.plan",
    "col.kernel_calls": "col.kernel",
}

# metric -> key of the flattened `stats` reply (see workloads.flatten_stats)
COUNTERS = {
    "vm.pipeline_breaks": "pipeline_breaks",
    "vm.materialized_tuples": "materialized_tuples",
    "vm.glue_hash_joins": "glue_hash_joins",
    "nail.idb_cache_hits": "idb_cache_hits",
    "nail.idb_delta_repairs": "idb_delta_repairs",
    "nail.idb_delta_rounds": "idb_delta_rounds",
    "nail.idb_invalidations": "idb_invalidations",
    "nail.idb_resyncs": "idb_resyncs",
    "storage.inserts": "inserts",
    "storage.duplicate_inserts": "duplicate_inserts",
    "storage.tuples_scanned": "tuples_scanned",
    "storage.index_lookups": "index_lookups",
    "storage.index_probe_tuples": "index_probe_tuples",
    "storage.index_builds": "index_builds",
    "storage.index_build_tuples": "index_build_tuples",
    "txn.wal_commits": "wal_commits",
    "txn.wal_fsyncs": "wal_fsyncs",
    "mvcc.publishes": "mvcc_publishes",
    "mvcc.snapshot_reads": "snapshot_reads",
    "mvcc.snapshot_fallbacks": "snapshot_fallbacks",
    "sub.notifications_pushed": "notifications_pushed",
    "sub.resyncs": "sub_resyncs",
    "sub.dropped": "sub_dropped",
    "par.parallel_joins": "parallel_joins",
}

# client.* metric -> latency kind the load generator recorded (untraced)
CLIENT_P50 = {
    "client.read_p50_ms": ("page", "read"),
    "client.write_p50_ms": ("write",),
    "client.notify_p50_ms": ("notify",),
    "client.magic_p50_ms": ("magic",),
    "client.closure_p50_ms": ("closure",),
    "client.report_p50_ms": ("report",),
    "client.export_p50_ms": ("export",),
    "client.txn_p50_ms": ("txn",),
    "client.txn_batch_p50_ms": ("txn_batch",),
    "client.commit_p50_ms": ("commit",),
    "client.checkpoint_p50_ms": ("checkpoint",),
}
CLIENT_TAIL = {
    "client.read_tail_ms": ("page", "read"),
    "client.write_tail_ms": ("write",),
}

LOCK_WAIT_NS = 100_000   # an acquire slower than this counts as a wait


class SpanTotals:
    """Self time, calls and n per span name over the measured window."""

    def __init__(self, traces: List[dict], window: Optional[tuple]):
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.n: Dict[str, int] = {}
        self.lock_waits = 0
        self.request_ns = 0      # decode + dispatch + encode of every request
        self.missing: List[dict] = []
        self.atoms = 0
        for trace in traces:
            names = trace["names"]
            leaves = set(trace["leaf_names"])
            self.missing.extend(m for m in trace["missing"] if m not in self.missing)
            self.atoms = max([self.atoms] + [c["atoms"] for c in trace["columnar"]])
            for name_id, start, took, own, request, n, _span, parent in trace["spans"]:
                if window is not None and not window[0] <= start <= window[1]:
                    continue
                name = names[name_id]
                self.self_ns[name] = self.self_ns.get(name, 0) + own
                self.calls[name] = self.calls.get(name, 0) + (n if name in leaves else 1)
                self.n[name] = self.n.get(name, 0) + (0 if name in leaves else max(n, 0))
                if name == "server.lock_wait" and took > LOCK_WAIT_NS:
                    self.lock_waits += 1
                if request and not parent:
                    self.request_ns += took

    def missing_names(self) -> set:
        return {m["metric"] for m in self.missing}


def per_layer(spans: SpanTotals, traced, reference,
              names: List[str]) -> Dict[str, Optional[float]]:
    """Every per-layer metric in ``names``: a number, or None when the
    wrapper that would measure it found no target to wrap.  ``spans`` are
    the totals of the ``traced`` phase; ``reference`` is the untraced one."""
    ops = max(1, traced.ops)
    counters = traced.counters
    absent = spans.missing_names()

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values: Dict[str, Optional[float]] = {}
    for metric, name in SELF_MS.items():
        values[metric] = None if name in absent else spans.self_ns.get(name, 0) / 1e6 / ops
    for metric, name in CALLS.items():
        values[metric] = None if name in absent else spans.calls.get(name, 0) / ops
    for metric, key in COUNTERS.items():
        values[metric] = counters.get(key, 0) / ops

    table_calls = spans.calls.get("col.table", 0)
    table_hits = spans.n.get("col.table", 0)
    facts_rows = spans.n.get("storage.insert", 0)   # rows `Database.facts` reported new
    values.update({
        "server.wire_ms": (traced.client_busy_ms - spans.request_ns / 1e6) / ops,
        "server.request_bytes": spans.n.get("server.decode", 0) / ops,
        "server.reply_bytes": spans.n.get("server.encode", 0) / ops,
        "server.lock_waits": spans.lock_waits / ops,
        "core.compile_calls": spans.n.get("core.compile", 0) / ops,
        "core.exec_ms": traced.exec_ms / ops,
        "col.atoms": float(spans.atoms),
        "col.table_builds": (table_calls - table_hits) / ops,
        "col.table_hits": table_hits / ops,
        "col.cache_hit_share": share(table_hits, table_calls),
        "storage.examined_per_row": share(
            counters.get("tuples_scanned", 0) + counters.get("index_probe_tuples", 0),
            traced.rows_returned),
        "storage.checkpoint_bytes": share(spans.n.get("storage.checkpoint", 0),
                                          spans.calls.get("storage.checkpoint", 0)),
        "txn.rows_per_commit": share(facts_rows, counters.get("wal_commits", 0)),
        "txn.wal_bytes_per_row": share(spans.n.get("txn.wal_append", 0), facts_rows),
        "sub.queued_max": traced.extra.get("sub_queued_max", 0),
        "bench.gen_late_p95_ms": traced.extra.get("late_p95_ms", 0.0),
        "bench.unsynced_bytes": traced.extra.get("unsynced_bytes", 0),
    })
    for metric, name in (("server.request_bytes", "server.decode"),
                         ("server.reply_bytes", "server.encode"),
                         ("core.compile_calls", "core.compile"),
                         ("col.table_builds", "col.table"), ("col.table_hits", "col.table"),
                         ("col.cache_hit_share", "col.table"),
                         ("storage.checkpoint_bytes", "storage.checkpoint"),
                         ("txn.rows_per_commit", "storage.insert"),
                         ("txn.wal_bytes_per_row", "txn.wal_append")):
        if name in absent:
            values[metric] = None

    for metric, wanted in CLIENT_P50.items():
        values[metric] = median(reference.latencies(*wanted))
    for metric, wanted in CLIENT_TAIL.items():
        values[metric] = tail(reference.latencies(*wanted))[1]
    values["client.ops_per_s"] = share(reference.rate_count, reference.rate_wall_s)
    values["client.recover_s"] = median(reference.latencies("recover")) / 1e3
    values["client.rows_per_s"] = share(reference.extra.get("rows", 0), reference.rate_wall_s)
    # both at reference speed: the two phases run minutes apart
    base, with_tracing = (median(phase.speed.scaled(phase.samples.get(phase.primary, ())))
                          for phase in (reference, traced))
    values["obs.trace_overhead_share"] = share(with_tracing - base, base)
    values["bench.speed_factor"] = median(
        [ms for _at, ms in traced.speed.samples]) / traced.speed.REFERENCE_MS

    unknown = set(names) - set(values)
    if unknown:
        raise KeyError(f"BENCHMARK.json names per-layer metrics nobody computes: {sorted(unknown)}")
    return {name: values[name] for name in names}


def dispatch_coverage(trace: dict) -> List[float]:
    """For each request of a trace: the self times under its
    ``server.dispatch`` span, summed, over that span's duration.  1.0 when
    the bookkeeping is right."""
    names = trace["names"]
    dispatch = names.index("server.dispatch")
    top_level = {names.index(n) for n in ("server.decode", "server.encode") if n in names}
    total: Dict[int, int] = {}
    own: Dict[int, int] = {}
    for name_id, _start, took, self_ns, request, _n, _span, parent in trace["spans"]:
        if not request or (name_id in top_level and not parent):
            continue
        own[request] = own.get(request, 0) + self_ns
        if name_id == dispatch and not parent:
            total[request] = took
    return [own[r] / took for r, took in total.items() if took]
