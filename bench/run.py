#!/usr/bin/env python3
"""The benchmark: one command, end to end, with the time attributed to layers.

    python3 bench/run.py --seed 1                      # every workload
    python3 bench/run.py --seed 1 --workload analytic_closure --trace 1
    python3 bench/run.py --seed 1 --trace both         # every metric there is

Each workload starts the real server (``bench/serve.py``, which only calls
the product's CLI) as a subprocess in its default configuration, drives it
over TCP with the product's own client, checks every reply against the
plain-Python answers of ``bench/gen.py`` and prints every metric by name
with its unit.  ``--trace 0`` measures the end-to-end metrics of
BENCHMARK.json with tracing off; ``--trace 1`` runs a short untraced
reference phase and then a traced phase, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a result document
with provenance goes to ``bench/out/results/``.

See bench/README.md for what the workloads and metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

import gen
import harness
import layers
from harness import ROOT, Budget, median, percentile, tail

SCALE_SECONDS = {"full": None, "smoke": 1.5}   # None: run_seconds of BENCHMARK.json
REFERENCE_SHARE = 0.4    # of a traced run's seconds, spent untraced first


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="one workload (default: all of them, one after the other)")
    parser.add_argument("--seed", type=int, default=1,
                        help="labels, row order and request streams (default 1)")
    parser.add_argument("--seconds", type=float,
                        help="length of the measured phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1", "both"),
                        help="0: end-to-end metrics, tracing off (default); "
                             "1: per-layer metrics from a traced run; both: one after the other")
    parser.add_argument("--scale", choices=sorted(SCALE_SECONDS), default="full",
                        help="dataset size; smoke is for the benchmark's own tests")
    parser.add_argument("--ops", type=int,
                        help="end the measured phase after exactly this many ops (pages, "
                             "requests, transactions, ingest cycles), not after --seconds: "
                             "bench/agree.py uses it to make work counters repeat")
    return parser.parse_args(argv)


def run_untraced(build, args, seconds, spec) -> dict:
    """``build(traced)`` makes the workload: one set-up, one measured phase."""
    workload = build(False)
    with workload.speed:
        try:
            setup_raw, setup_s = workload.setup()
            phase = workload.measure(Budget(seconds, args.ops))
        finally:
            workload.teardown()
    primary = phase.latencies(phase.primary)
    setups = phase.speed.scaled(phase.samples.get(phase.setup_kind, ()))
    if setups:     # the workload sets up once per op
        setup_s, setup_raw = median(setups) / 1e3, median(phase.latencies(phase.setup_kind)) / 1e3
    values = {
        "setup_s": setup_s,
        "p50_ms": median(phase.speed.scaled(phase.samples.get(phase.primary, ()))),
        "rss_peak_mb": phase.rss_peak_mb,
    }
    q, value = tail(primary)
    highest = f", p{q:g}={value:.3f} ms" if q > 50 else ""
    probe = median([ms for _at, ms in phase.speed.samples])
    notes = {
        "setup_s": f"at reference speed; as measured {setup_raw:.3f} s"
                   + (f", median of {len(setups)}" if setups else ""),
        "p50_ms": f"{phase.primary}, n={len(primary)}, at reference speed; as measured "
                  f"p50={median(primary):.3f} ms{highest}, "
                  f"{phase.rate_count / phase.rate_wall_s:.2f} ops/s; speed probe "
                  f"{probe:.3f} ms (reference {phase.speed.REFERENCE_MS})",
    }
    return finish(spec["end_to_end"], values, notes, [phase], None)


def run_traced(build, args, seconds, spec) -> dict:
    """An untraced reference phase, then a traced phase, each on its own server."""
    phases = []
    for traced, share in ((False, REFERENCE_SHARE), (True, 1.0 - REFERENCE_SHARE)):
        workload = build(traced)
        with workload.speed:
            try:
                workload.setup()
                phases.append(workload.measure(Budget(seconds * share, args.ops)))
            finally:
                workload.teardown()
    reference, traced = phases
    spans = layers.SpanTotals(traced.traces, traced.window)
    values = layers.per_layer(spans, traced, reference, [m["name"] for m in spec["per_layer"]])
    coverage = [c for trace in traced.traces for c in layers.dispatch_coverage(trace)]
    notes = {name: "no target to wrap" for name, value in values.items() if value is None}
    detail = {
        "missing_targets": spans.missing,
        "dispatch_coverage_min": min(coverage, default=None),
        "dispatch_coverage_max": max(coverage, default=None),
        "traced_ops": traced.ops,
        "reference_ops": reference.ops,
    }
    return finish(spec["per_layer"], values, notes, phases, detail)


def summary(samples) -> dict:
    return {"n": len(samples), "min": min(samples), "max": max(samples),
            **{f"p{q}": percentile(samples, q) for q in (10, 25, 50, 75, 90, 99)}}


def finish(declared, values, notes, phases, detail) -> dict:
    attempted = sum(phase.tally.attempted for phase in phases)
    failed = sum(phase.tally.failed for phase in phases)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else 1.0,
        "failure_notes": [note for phase in phases for note in phase.tally.notes][:5],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        "notes": notes,
        "latency_ms": [{kind: summary(phase.latencies(kind)) for kind in phase.samples}
                       for phase in phases],
        "samples": [{kind: [(round(at, 3), round(ms, 3)) for at, ms in rows]
                     for kind, rows in phase.samples.items()} for phase in phases],
        "speed_probe_ms": [[(round(at, 3), round(ms, 3)) for at, ms in phase.speed.samples]
                           for phase in phases],
        "detail": detail,
    }


def print_result(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  scale {result['scale']}  "
          f"seconds {result['seconds']:g}  trace {result['trace']}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.4f}"
        note = result["notes"].get(name, "")
        print(f"  {name:<28} {shown:>14} {metric['unit']:<6} {note}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"fail_share {result['fail_share']:.6f}")
    for note in result["failure_notes"]:
        print(f"  FAILED: {note}")
    sys.stdout.flush()


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro next to bench/: nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = load_spec()
    args = parse_args(argv, spec)

    from workloads import WORKLOADS, SetupError   # needs src/ on the path

    seconds = args.seconds or SCALE_SECONDS[args.scale] or float(spec["run_seconds"])
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    for name in names:
        if WORKLOADS[name].clients > harness.cores():
            print(f"bench: refusing {name}: {WORKLOADS[name].clients} load-generator "
                  f"connections on {harness.cores()} core(s)", file=sys.stderr)
            return 2

    # The driver may stop a run with SIGTERM; servers must not outlive it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(3))
    provenance = harness.provenance()
    key = provenance["commit"] or "src-" + provenance["source_sha256"][:12]
    dataset = gen.Dataset(args.seed, args.scale)
    scratch = harness.Scratch(f"{'+'.join(names)}-s{args.seed}-t{args.trace}")
    results = []
    try:
        for name in names:
            harness.place(WORKLOADS[name].one_core)
            for traced in {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]:
                def build(traced, cls=WORKLOADS[name]):
                    return cls(dataset, scratch, traced)

                result = (run_traced if traced else run_untraced)(build, args, seconds, spec)
                result.update(workload=name, seed=args.seed, scale=args.scale, seconds=seconds,
                              trace=int(traced), ops_limit=args.ops,
                              stream_sha256=dataset.stream_digest(name))
                print_result(result)
                results.append(result)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        scratch.remove()

    document = {"key": key, "provenance": provenance, "sizes": dataset.sizes(),
                "recorded_unix": time.time(), "runs": results}
    directory = os.path.join(harness.OUT, "results", key)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{'+'.join(names)}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(f"result document: {os.path.relpath(path, ROOT)}")

    # The contract's last line.  A metric whose wrapper found no target is
    # null in the document above and 0 here, where only numbers may stand.
    single = len(results) == 1
    metrics = {
        (name if single else f"{result['workload']}/{result['trace']}/{name}"):
            {"value": 0 if metric["value"] is None else metric["value"], "unit": metric["unit"]}
        for result in results for name, metric in result["metrics"].items()
    }
    print(json.dumps({
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
