#!/usr/bin/env python3
"""Does the benchmark agree with itself?  Two sets of runs, same code.

    python3 bench/agree.py

Like the acceptance check, it runs every workload with RUNS seeds, twice.
For every (end-to-end metric, workload) it prints the median of each set,
their ratio, the metric's bound from BENCHMARK.json, and each set's spread
(distance between the quartiles of its runs over their median).  It exits
nonzero when the second median is worse than the first by more than the
bound, or when a spread, other than that of ``setup_s``, is wider than the
bound.

It then runs each workload twice traced with a fixed op count and the same
seed.  The deterministic work counters must repeat exactly on the
single-client workloads; on the concurrent ones their spread is reported.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

RUNS = 10
FIRST_SEED = 101

# name prefixes of counters that count work, not time or bytes in flight
WORK_COUNTERS = ("storage.inserts", "storage.duplicate_inserts", "storage.tuples_scanned",
                 "storage.index_", "nail.idb_", "txn.wal_commits", "txn.wal_fsyncs",
                 "vm.pipeline_breaks", "vm.materialized_tuples", "vm.glue_hash_joins")
CONCURRENT = ("point_reads", "mixed_rw")
FIXED_OPS = {"point_reads": 40, "analytic_magic": 100, "analytic_closure": 3,
             "analytic_report": 3, "analytic_export": 3, "mixed_rw": 12, "ingest_recover": 1}


def run(workload: str, seed: int, trace: int, extra=()) -> dict:
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(command)}: {result['failed']} of "
                         f"{result['attempted']} operations failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    workloads = [w["name"] for w in spec["workloads"]]
    bad = 0

    sets = []
    for number in (1, 2):
        values = {}
        for workload in workloads:
            for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
                metrics = run(workload, seed, 0)
                for name, value in metrics.items():
                    values.setdefault((name, workload), []).append(value)
                print(f"set {number} {workload} seed {seed}: " + "  ".join(
                    f"{name}={value:.4g}" for name, value in metrics.items()), flush=True)
        sets.append(values)

    print(f"\n{'metric':<12} {'workload':<17} {'set 1':>10} {'set 2':>10} {'worse by':>9} "
          f"{'bound':>6} {'spread 1':>9} {'spread 2':>9}")
    for metric in spec["end_to_end"]:
        for workload in workloads:
            first, second = (s[(metric["name"], workload)] for s in sets)
            m1, m2 = statistics.median(first), statistics.median(second)
            worse = (m2 / m1 - 1.0) if metric["better"] == "lower" else (m1 / m2 - 1.0)
            spreads = spread(first), spread(second)
            verdict, failed = "", False
            if worse > metric["bound"]:
                verdict, failed = "  SECOND MEDIAN WORSE", True
            elif metric["name"] != "setup_s" and max(spreads) > metric["bound"]:
                verdict, failed = "  SPREAD WIDER THAN BOUND", True
            elif metric["name"] != "setup_s" and max(spreads) > metric["bound"] / 3:
                verdict = "  (spread above a third of the bound)"
            bad += failed
            print(f"{metric['name']:<12} {workload:<17} {m1:>10.4g} {m2:>10.4g} {worse:>+9.3f} "
                  f"{metric['bound']:>6.2f} {spreads[0]:>9.3f} {spreads[1]:>9.3f}{verdict}")

    print("\nwork counters, two traced runs with the same seed and op count:")
    for workload in workloads:
        fixed = ["--ops", str(FIXED_OPS[workload])]
        first, second = (run(workload, FIRST_SEED, 1, fixed) for _ in (1, 2))
        differing = []
        for name in first:
            if name.startswith(WORK_COUNTERS) and first[name] != second[name]:
                base = max(abs(first[name]), abs(second[name]))
                differing.append((name, first[name], second[name],
                                  abs(first[name] - second[name]) / base))
        exact = workload not in CONCURRENT
        if not differing:
            print(f"  {workload}: every work counter repeated exactly")
        for name, a, b, share in differing:
            print(f"  {workload}: {name} {a:.6g} vs {b:.6g} (differs by {share:.2%})"
                  + ("  MUST REPEAT EXACTLY" if exact else ""))
        bad += exact and bool(differing)

    print("\nagreement: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
