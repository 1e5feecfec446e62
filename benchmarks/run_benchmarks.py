#!/usr/bin/env python
"""Benchmark harness for the two A/B workloads that are not differential
tests: push subscriptions vs polling, and MVCC snapshot reads vs the
read/write lock.  Each run is written to a ``BENCH_*.json`` file; existing
history entries there are preserved and ``--label`` appends the new run,
so the file accumulates a trajectory across changes.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --subscriptions --quick --check
    PYTHONPATH=src python benchmarks/run_benchmarks.py --mvcc --quick --check

``--quick`` shrinks the workloads for CI smoke runs.  ``--check`` verifies
the workload's invariant and exits nonzero on a divergence.  The join
engines' differentials are tests (``tests/nail/test_hashjoin.py``,
``tests/vm/test_glue_hashjoin.py``, ``tests/col/test_columnar.py``), and
end-to-end time is measured by ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._workloads import PATH_RULES  # noqa: E402


def _runtime_info() -> dict:
    """Interpreter provenance for BENCH entries.

    Wall-clock numbers are not comparable across Python versions or
    across GIL vs free-threaded builds of the same version, so every
    results document records which interpreter produced it.
    """
    import os
    import platform
    import sysconfig

    is_gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "python_version": platform.python_version(),
        "free_threaded_build": bool(sysconfig.get_config_var("Py_GIL_DISABLED")),
        "gil_enabled": bool(is_gil()) if is_gil is not None else True,
        "cores": os.cpu_count(),
    }


def run_subscriptions(quick: bool, check: bool):
    """The continuous-query workload: N subscribers over a mixed stream.

    One system maintains the transitive closure of a chain while a mixed
    insert/delete/rollback stream commits against it.  N subscribers watch
    ``path/2`` through the push pipeline (callback mode, so delivery time
    is measured on the committing thread); the baseline runs the same
    stream with N pollers that re-read the whole extension after every
    commit and diff it against their previous copy -- the poll-and-requery
    pattern push replaces.  Under ``--check`` one subscriber's replayed
    replica is compared against a from-scratch recomputation at the end.
    """
    import random as random_mod
    import statistics

    from repro.core.system import GlueNailSystem
    from repro.terms.term import mk

    chain = 40 if quick else 80
    steps = 60 if quick else 200
    subscribers = 4 if quick else 8
    rng = random_mod.Random(1991)

    def script(on_commit=None, subscriber_count=0, replica=None):
        """Run the mixed stream once; returns (system, wall seconds,
        per-commit latencies)."""
        system = GlueNailSystem()
        system.load(PATH_RULES)
        system.facts("edge", [(n, n + 1) for n in range(chain)])
        system.query("path(X, Y)?")  # warm the engine
        latencies = []
        for _ in range(subscriber_count):
            def deliver(note, fired=latencies):
                fired.append(time.perf_counter())
                if replica is not None and note.predicate == "path/2":
                    if note.op == "insert":
                        replica.update(note.rows)
                    elif note.op == "delete":
                        replica.difference_update(note.rows)
            system.subscribe("path", 2, callback=deliver)
        if replica is not None:
            replica.update(system.query("path(X, Y)?"))
        relation = system.db.relation(mk("edge"), 2)
        live = [(n, n + 1) for n in range(chain)]
        stream = rng.getstate()
        t_start = time.perf_counter()
        per_commit = []
        for step in range(steps):
            action = rng.random()
            t0 = time.perf_counter()
            if action < 0.55 or len(live) < 2:
                row = (rng.randrange(chain), rng.randrange(chain))
                system.facts("edge", [row])
                live.append(row)
            elif action < 0.85:
                row = live.pop(rng.randrange(len(live)))
                relation.delete(tuple(mk(v) for v in row))
            else:
                system.begin()
                system.facts("edge", [(chain + step, chain + step + 1)])
                system.rollback()
            if latencies:
                per_commit.append(latencies[-1] - t0)
            if on_commit is not None:
                on_commit(system)
        wall = time.perf_counter() - t_start
        rng.setstate(stream)  # both runs see the identical stream
        return system, wall, per_commit

    # Push mode: N callback subscribers, one (under --check) replaying.
    replica = set() if check else None
    push_system, push_wall, latencies = script(
        subscriber_count=subscribers, replica=replica
    )
    pushed = push_system.db.counters.notifications_pushed

    divergences = []
    if check:
        recomputed = set(push_system.query("path(X, Y)?"))
        if replica != recomputed:
            missing = len(recomputed - replica)
            extra = len(replica - recomputed)
            divergences.append(f"replay (missing {missing}, extra {extra})")

    # Poll baseline: N pollers re-read and diff the extension per commit.
    poll_copies = [set() for _ in range(subscribers)]

    def poll(system):
        # Each poller independently re-reads the whole extension and
        # diffs it against its previous copy -- the pattern push replaces.
        for copy in poll_copies:
            current = set(system.query("path(X, Y)?"))
            copy.symmetric_difference(current)  # the diff a poller computes
            copy.clear()
            copy.update(current)

    _, poll_wall, _ = script(on_commit=poll)

    stats = {
        "chain": chain,
        "steps": steps,
        "subscribers": subscribers,
        "rows": len(push_system.query("path(X, Y)?")),
        "notifications_pushed": pushed,
        "push_wall_s": round(push_wall, 5),
        "poll_wall_s": round(poll_wall, 5),
        "speedup_vs_poll": round(poll_wall / max(push_wall, 1e-9), 1),
        "latency_median_us": round(
            statistics.median(latencies) * 1e6, 1
        ) if latencies else None,
        "notifications_per_s": round(pushed / max(push_wall, 1e-9)),
        "resyncs": push_system.subscriptions.resyncs,
    }
    return stats, divergences

def _record(args, default_file: str, name: str, stats: dict) -> None:
    """Write ``{name: stats}`` as the document's current workloads,
    keeping its history and appending this run under ``--label``."""
    out_path = Path(
        args.out if args.out else Path(__file__).resolve().parent.parent / default_file
    )
    doc = {"workloads": {}, "history": []}
    if out_path.exists():
        try:
            doc = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            pass
    doc["quick"] = args.quick
    doc.update(_runtime_info())
    doc["workloads"] = {name: stats}
    if args.label:
        doc.setdefault("history", []).append(
            {"label": args.label, "quick": args.quick, "workloads": {name: stats}}
        )
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {out_path}")


def main_subscriptions(args) -> int:
    stats, divergences = run_subscriptions(args.quick, args.check)
    name = f"subs-{stats['subscribers']}x-chain-{stats['chain']}"
    print(
        f"{name:28s} rows={stats['rows']:<7d} pushed={stats['notifications_pushed']:<7d} "
        f"push={stats['push_wall_s']:<8.5f} poll={stats['poll_wall_s']:<8.5f} "
        f"speedup={stats['speedup_vs_poll']}x "
        f"latency={stats['latency_median_us']}us"
        + ("  check=" + ("DIVERGED" if divergences else "OK") if args.check else "")
    )
    _record(args, "BENCH_subscriptions.json", name, stats)
    if divergences:
        print(f"DIVERGENCE push replay vs recomputation: {', '.join(divergences)}")
        return 1
    return 0


def _percentile(values, q):
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def _run_mvcc_mode(mvcc, txns, rows_per_txn, readers, hold_s):
    """One write-heavy mix against a live server: a writer holding chunky
    transactions while reader sessions time every ``rows`` request.

    Returns per-request read latencies, the observed row counts (for the
    consistency check: with one writer committing whole batches, every
    read must land on a committed multiple of ``rows_per_txn``), the final
    extension, and the server's MVCC stats.
    """
    import threading

    from repro.server.protocol import decode_values
    from repro.server.server import GlueNailServer

    batches_per_txn = 3
    chunk = rows_per_txn // batches_per_txn
    with GlueNailServer(port=0, mvcc=mvcc).start() as server:
        stop = threading.Event()
        latencies = []
        observed = []
        failures = []

        def read_loop():
            try:
                session = server._new_session()
                local_lat, local_obs = [], []
                while not stop.is_set():
                    t0 = time.perf_counter()
                    reply = session.dispatch(
                        {"op": "rows", "name": "edge", "arity": 2}
                    )
                    local_lat.append(time.perf_counter() - t0)
                    local_obs.append(reply["count"])
                    # Paced arrivals: without this, a reader stalled
                    # behind the write lock stops sampling while fast
                    # between-window reads pile up -- coordinated
                    # omission that hides the stall from the p99.
                    time.sleep(0.001)
                latencies.extend(local_lat)
                observed.extend(local_obs)
            except Exception as exc:  # noqa: BLE001 - surface, don't hang
                failures.append(repr(exc))

        threads = [threading.Thread(target=read_loop) for _ in range(readers)]
        for t in threads:
            t.start()
        writer = server._new_session()
        try:
            for txn in range(txns):
                writer.dispatch({"op": "begin"})
                base = txn * rows_per_txn
                for b in range(batches_per_txn):
                    rows = [
                        [base + b * chunk + j, j] for j in range(chunk)
                    ]
                    writer.dispatch({"op": "facts", "name": "edge", "rows": rows})
                    # The write window the paper's readers stall behind:
                    # the transaction stays open (write lock held) while
                    # the writer prepares its next batch.
                    time.sleep(hold_s)
                writer.dispatch({"op": "commit"})
                time.sleep(0.005)  # a between-transactions breather
        finally:
            stop.set()
        for t in threads:
            t.join(timeout=30)
        assert not failures, failures
        final = sorted(decode_values(writer.dispatch(
            {"op": "rows", "name": "edge", "arity": 2}
        )))
        mvcc_stats = server.mvcc_store.stats() if server.mvcc_store else {}
    return latencies, observed, final, mvcc_stats


def run_mvcc(quick, check):
    txns = 4 if quick else 12
    rows_per_txn = 90
    readers = 2 if quick else 4
    hold_s = 0.02 if quick else 0.03

    results = {}
    finals = {}
    divergences = []
    for mode, mvcc in (("lock", False), ("snapshot", True)):
        latencies, observed, final, mvcc_stats = _run_mvcc_mode(
            mvcc, txns, rows_per_txn, readers, hold_s
        )
        finals[mode] = final
        if check:
            torn = [n for n in observed if n % rows_per_txn != 0]
            if torn:
                divergences.append(
                    f"{mode}: {len(torn)} reads saw uncommitted rows"
                )
        results[mode] = {
            "reads": len(latencies),
            "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
            "max_ms": round(max(latencies) * 1e3, 3),
        }
        if mvcc_stats:
            results[mode]["snapshot_publishes"] = mvcc_stats["publishes"]
    if check and finals["lock"] != finals["snapshot"]:
        divergences.append("final extensions differ between modes")

    stats = {
        "txns": txns,
        "rows_per_txn": rows_per_txn,
        "readers": readers,
        "write_hold_s": hold_s,
        "rows": len(finals["snapshot"]),
        "lock": results["lock"],
        "snapshot": results["snapshot"],
        "p99_speedup": round(
            results["lock"]["p99_ms"] / max(results["snapshot"]["p99_ms"], 1e-6),
            1,
        ),
    }
    return stats, divergences

def main_mvcc(args) -> int:
    stats, divergences = run_mvcc(args.quick, args.check)
    name = f"mvcc-readers-{stats['readers']}x"
    print(
        f"{name:28s} rows={stats['rows']:<7d} "
        f"lock_p99={stats['lock']['p99_ms']:<9.3f} "
        f"snap_p99={stats['snapshot']['p99_ms']:<9.3f} "
        f"speedup={stats['p99_speedup']}x"
        + ("  check=" + ("DIVERGED" if divergences else "OK") if args.check else "")
    )
    _record(args, "BENCH_mvcc.json", name, stats)
    if divergences:
        print(f"DIVERGENCE lock vs snapshot reads: {', '.join(divergences)}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workload = parser.add_mutually_exclusive_group(required=True)
    workload.add_argument(
        "--subscriptions",
        action="store_true",
        help="the continuous-query workload (N push subscribers over a mixed "
        "insert/delete stream vs the poll-and-requery baseline); writes "
        "BENCH_subscriptions.json by default; --check verifies a "
        "subscriber's replayed deltas against recomputation",
    )
    workload.add_argument(
        "--mvcc",
        action="store_true",
        help="the snapshot-read workload (reader sessions timing requests "
        "while a writer holds chunky transactions; MVCC snapshot pins vs the "
        "read/write-lock baseline); writes BENCH_mvcc.json by default; "
        "--check asserts readers only ever saw committed states and both "
        "modes converge to identical rows",
    )
    parser.add_argument("--quick", action="store_true", help="small CI-sized workloads")
    parser.add_argument(
        "--check", action="store_true",
        help="verify the workload's invariant; exit nonzero on divergence",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (history in an existing file is preserved); "
        "default BENCH_subscriptions.json or BENCH_mvcc.json",
    )
    parser.add_argument(
        "--label", default=None, help="history label for this run (default: none, "
        "run is not appended to history)"
    )
    args = parser.parse_args(argv)
    return main_subscriptions(args) if args.subscriptions else main_mvcc(args)


if __name__ == "__main__":
    raise SystemExit(main())
