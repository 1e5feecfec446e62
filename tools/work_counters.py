"""Deterministic work counters of fixed phases on the benchmark program.

Runs ``bench/program.glue`` over ``bench/gen.py``'s ``Dataset(7, "smoke")``
in process, on one durable store, and records per phase every
``CostCounters`` field plus the write-ahead log's ``wal.commits`` and
``wal.fsyncs``.  The phases are the ``reach`` closure, ``venue_report``,
``coauthor``, ``uncited``, three magic ``reach`` queries, a 250-row
``facts`` batch, a Glue ``+=`` call and a checkpoint followed by a reopen.

``tests/integration/test_work_counters.py`` compares a run with the
committed baseline ``tests/integration/work_counters.json``.  It also sends
the read phases (:func:`read_requests`) to an in-process query-server
session, which must charge the same plus the one snapshot each read pins.
Re-baseline only by hand, after checking that every change is intended::

    PYTHONPATH=src python tools/work_counters.py           # print a run
    PYTHONPATH=src python tools/work_counters.py --write   # re-baseline
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict

from repro.core.system import GlueNailSystem

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "tests" / "integration" / "work_counters.json"

COPY_PROC = """
proc copy_tags(:)
  seen(N, T) += tag(N, T).
  return(:) := true.
end
"""
TAGS = [(n, f"t{n % 7}") for n in range(250)]


def smoke_dataset():
    spec = importlib.util.spec_from_file_location("_bench_gen", ROOT / "bench" / "gen.py")
    gen = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.Dataset(7, "smoke")


def program_text() -> str:
    return (ROOT / "bench" / "program.glue").read_text() + COPY_PROC


def read_requests(data) -> Dict[str, dict]:
    """The read phases, in run order, as query-server requests."""
    requests = {
        "reach": {"op": "query", "q": "reach(P, Q)?"},
        "venue_report": {"op": "call", "name": "venue_report"},
        "coauthor": {"op": "query", "q": "coauthor(A, B)?"},
        "uncited": {"op": "query", "q": "uncited(P)?"},
    }
    for index, source in enumerate(data.sources[:3]):
        requests[f"magic_{index}"] = {"op": "query", "q": f"reach({source}, Q)?", "magic": True}
    return requests


def _run_read(system: GlueNailSystem, request: dict):
    """One of :func:`read_requests` run on an embedded system."""
    if request["op"] == "call":
        return system.call(request["name"])
    return (system.query_magic if request.get("magic") else system.query)(request["q"])


def _measure(system: GlueNailSystem, action=None) -> Dict[str, int]:
    """The counters ``action`` adds; without one, all since ``open``."""
    wal = system.store.wal
    commits, fsyncs = wal.commits, wal.fsyncs
    if action is not None:
        system.reset_counters()
        action()
    else:
        commits = fsyncs = 0
    counts = system.counters.snapshot()
    counts["wal.commits"] = wal.commits - commits
    counts["wal.fsyncs"] = wal.fsyncs - fsyncs
    return counts


def run_phases(observe=None) -> Dict[str, Dict[str, int]]:
    """Run every phase once; returns ``{phase: {field: count}}``.

    ``observe(phase, result, directory)``, when given, is called after each
    phase but ``reopen`` with what the phase returned and the store's
    directory, before the next phase runs."""
    data = smoke_dataset()
    phases: Dict[str, Dict[str, int]] = {}
    with tempfile.TemporaryDirectory() as directory:
        system = GlueNailSystem.open(directory)
        system.load(program_text())
        for name, rows in data.relations():
            system.facts(name, rows)
        reads = {
            phase: lambda r=request: _run_read(system, r)
            for phase, request in read_requests(data).items()
        }
        reads["facts_250"] = lambda: system.facts("tag", TAGS)
        reads["glue_insert_call"] = lambda: system.call("copy_tags")
        reads["checkpoint"] = system.checkpoint
        for phase, action in reads.items():
            results = []
            phases[phase] = _measure(system, lambda: results.append(action()))
            if observe is not None:
                observe(phase, results[0], Path(directory))
        system.close()
        reopened = GlueNailSystem.open(directory)
        phases["reopen"] = _measure(reopened)
        reopened.close()
    return phases


def load_baseline() -> Dict[str, Dict[str, int]]:
    return json.loads(BASELINE.read_text())


def mismatch_table(baseline, now) -> str:
    """The differing (phase, field) pairs as a table, or '' when equal."""
    rows = []
    for phase in sorted(set(baseline) | set(now)):
        old, new = baseline.get(phase, {}), now.get(phase, {})
        for field in sorted(set(old) | set(new)):
            if old.get(field) != new.get(field):
                rows.append((f"{phase}.{field}", str(old.get(field)), str(new.get(field))))
    if not rows:
        return ""
    width = max(len(row[0]) for row in rows)
    lines = [f"{'field':<{width}}  {'baseline':>10}  {'now':>10}"]
    lines += [f"{f:<{width}}  {b:>10}  {n:>10}" for f, b, n in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="overwrite the committed baseline with this run")
    args = parser.parse_args(argv)
    phases = run_phases()
    if args.write:
        BASELINE.write_text(json.dumps(phases, indent=1, sort_keys=True) + "\n")
        print(f"wrote {BASELINE.relative_to(ROOT)}")
        return 0
    table = mismatch_table(load_baseline(), phases)
    print(table or "identical to the baseline")
    return 1 if table else 0


if __name__ == "__main__":
    sys.exit(main())
