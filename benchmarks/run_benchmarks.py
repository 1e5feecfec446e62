#!/usr/bin/env python
"""Join-engine benchmark harness: measures the NAIL! evaluator and records
the trajectory across PRs.

Each workload materializes a recursive program bottom-up and reports rows,
wall-clock time, ``tuples_scanned`` (full-scan touches), index probe
counts, and fixpoint rounds.  Results are written to ``BENCH_joins.json``;
existing history entries in that file are preserved and the new run is
appended, so the file accumulates the before/after trajectory of evaluator
changes (see docs/PERFORMANCE.md).

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick --check

``--quick`` shrinks the workloads for CI smoke runs.  ``--check``
cross-validates every workload three ways -- hash-join seminaive (the
engine under test) against naive evaluation and against the nested-loop
baseline -- and exits nonzero on any divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks._workloads import (  # noqa: E402
    PATH_RULES,
    STAR_RULES,
    binary_tree_edges,
    chain_edges,
    db_with,
    layered_chain_edges,
    random_graph,
    skewed_star_facts,
)
from repro.lang.parser import parse_program  # noqa: E402
from repro.nail.engine import NailEngine, magic_query  # noqa: E402
from repro.storage.database import Database  # noqa: E402
from repro.terms.term import Atom, Compound, Num, Var  # noqa: E402

NEGATION_RULES = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
node(X) :- edge(X, _).
node(Y) :- edge(_, Y).
unreachable(X, Y) :- node(X) & node(Y) & !path(X, Y).
"""

HILOG_RULES = """
tc(G)(X, Y) :- e(G, X, Y).
tc(G)(X, Z) :- tc(G)(X, Y) & e(G, Y, Z).
"""


def rules_of(text):
    return list(parse_program(text).items)


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



def _materialize(db, rules, pred, arity, strategy="seminaive", join_mode="hash"):
    """Materialize ``pred`` and capture cost deltas for exactly that run."""
    engine = NailEngine(db, rules, strategy=strategy, join_mode=join_mode)
    counters = db.counters
    counters.reset()
    t0 = time.perf_counter()
    relation = engine.materialize(pred, arity)
    wall = time.perf_counter() - t0
    return {
        "rows": len(relation),
        "wall_s": round(wall, 4),
        "tuples_scanned": counters.tuples_scanned,
        "index_lookups": counters.index_lookups,
        "index_probe_tuples": counters.index_probe_tuples,
        "rounds": engine.rounds_run,
    }, set(relation.rows())


def _tc_workload(edges, pred=None, arity=2, rules=None):
    rules = rules_of(rules or PATH_RULES)
    pred = pred or Atom("path")

    def run(strategy="seminaive", join_mode="hash"):
        db = db_with({"edge": edges})
        return _materialize(db, rules, pred, arity, strategy, join_mode)

    return run


def _hilog_workload(families=3, chain=30):
    facts = [
        (f"g{f}", f * 1000 + i, f * 1000 + i + 1)
        for f in range(families)
        for i in range(chain)
    ]
    rules = rules_of(HILOG_RULES)
    pred = Compound(Atom("tc"), (Atom("g0"),))

    def run(strategy="seminaive", join_mode="hash"):
        db = Database()
        db.facts("e", facts)
        return _materialize(db, rules, pred, 2, strategy, join_mode)

    return run


def _negation_workload(nodes, edges):
    graph = random_graph(nodes, edges)
    rules = rules_of(NEGATION_RULES)

    def run(strategy="seminaive", join_mode="hash"):
        db = db_with({"edge": graph})
        return _materialize(db, rules, Atom("unreachable"), 2, strategy, join_mode)

    return run


def _magic_workload(chain, source):
    edges = chain_edges(chain)
    rules = rules_of(PATH_RULES)

    def run(strategy="seminaive", join_mode="hash"):
        db = db_with({"edge": edges})
        counters = db.counters
        counters.reset()
        t0 = time.perf_counter()
        answers, engine = magic_query(
            db, rules, Atom("path"), (Num(source), Var("Y")),
            strategy=strategy, join_mode=join_mode,
        )
        wall = time.perf_counter() - t0
        return {
            "rows": len(answers),
            "wall_s": round(wall, 4),
            "tuples_scanned": counters.tuples_scanned,
            "index_lookups": counters.index_lookups,
            "index_probe_tuples": counters.index_probe_tuples,
            "rounds": engine.rounds_run,
        }, set(answers)

    return run


GLUE_SOURCE = """
joined(A, D) := r(A, B) & s(B, C) & t(C, D).
far(A, D) := joined(A, D) & !near(A, D).
latest(B, A) +=[B] r(A, B).
"""

GLUE_OUT_PREDS = (("joined", 2), ("far", 2), ("latest", 2))


def _glue_facts(n):
    return {
        "r": [(i, i % 40) for i in range(n)],
        "s": [(i % 40, (i * 7) % 40) for i in range(n)],
        "t": [((i * 7) % 40, i) for i in range(n)],
        "near": [(i, i) for i in range(n)],
    }


def _run_glue_once(n, join_mode):
    """One Glue VM run: returns (stats, result-set per output predicate).

    Both modes run with the adaptive index policy disabled so the numbers
    compare the *statement planner* against the true per-row nested
    baseline (the hash path builds its indexes explicitly; the reactive
    policy would otherwise partially rescue the nested path).
    """
    from repro.core.system import GlueNailSystem
    from repro.storage.adaptive import NeverIndexPolicy

    system = GlueNailSystem(
        db=Database(index_policy=NeverIndexPolicy()), join_mode=join_mode
    )
    system.load(GLUE_SOURCE)
    for name, rows in _glue_facts(n).items():
        system.facts(name, rows)
    system.compile()
    counters = system.db.counters
    counters.reset()
    t0 = time.perf_counter()
    system.run_script()
    wall = time.perf_counter() - t0
    results = {
        f"{name}/{arity}": set(system.db.relation(Atom(name), arity).rows())
        for name, arity in GLUE_OUT_PREDS
    }
    stats = {
        "rows": len(results["joined/2"]),
        "wall_s": round(wall, 4),
        "tuples_scanned": counters.tuples_scanned,
        "index_lookups": counters.index_lookups,
        "index_probe_tuples": counters.index_probe_tuples,
        "total_tuple_touches": counters.total_tuple_touches,
        "glue_hash_joins": counters.glue_hash_joins,
    }
    return stats, results


def main_glue(args) -> int:
    """The Glue VM workload: a join-heavy statement pipeline (3-way join,
    anti-join, keyed update) over growing EDBs, run twice -- planned hash
    joins vs the ``join_mode="nested"`` per-row baseline."""
    sizes = [100, 200] if args.quick else [100, 200, 400]
    results = {}
    divergences = []
    for n in sizes:
        name = f"glue-3way-{n}"
        hash_stats, hash_rows = _run_glue_once(n, "hash")
        nested_stats, nested_rows = _run_glue_once(n, "nested")
        touch_x = round(
            nested_stats["total_tuple_touches"]
            / max(hash_stats["total_tuple_touches"], 1),
            1,
        )
        wall_x = round(nested_stats["wall_s"] / max(hash_stats["wall_s"], 1e-9), 1)
        entry = {
            "edb_rows": n,
            "hash": hash_stats,
            "nested": nested_stats,
            "touch_improvement": touch_x,
            "wall_improvement": wall_x,
        }
        results[name] = entry
        line = (
            f"{name:28s} rows={hash_stats['rows']:<7d} "
            f"hash={hash_stats['wall_s']:<8.4f} nested={nested_stats['wall_s']:<8.4f} "
            f"touches {hash_stats['total_tuple_touches']} vs "
            f"{nested_stats['total_tuple_touches']} ({touch_x}x)"
        )
        if args.check:
            ok = hash_rows == nested_rows
            line += "  check=" + ("OK" if ok else "DIVERGED")
            if not ok:
                divergences.append(name)
        print(line)

    out_path = Path(
        args.out
        if args.out
        else Path(__file__).resolve().parent.parent / "BENCH_glue_joins.json"
    )
    doc = {"workloads": {}, "history": []}
    if out_path.exists():
        try:
            doc = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            pass
    doc["quick"] = args.quick
    doc.update(_runtime_info())
    doc["workloads"] = results
    if args.label:
        doc.setdefault("history", []).append(
            {"label": args.label, "quick": args.quick, "workloads": results}
        )
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {out_path}")
    if divergences:
        print(f"DIVERGENCE hash vs nested Glue execution on: {', '.join(divergences)}")
        return 1
    return 0


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
    out_path = Path(
        args.out
        if args.out
        else Path(__file__).resolve().parent.parent / "BENCH_subscriptions.json"
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
    if divergences:
        print(f"DIVERGENCE push replay vs recomputation: {', '.join(divergences)}")
        return 1
    return 0


def _run_batchmode_once(source, facts, goal, arity, batch_mode, reps=2):
    """Materializations through the system facade under one batch mode.

    Times ``engine.materialize`` only: row fetching and sorting are shared
    presentation costs identical in both modes, and folding them into the
    timer flattens the kernel-speedup ratio the workload exists to
    measure.  Best wall of ``reps`` fresh runs (each run is a fresh
    system, so rows and counters are deterministic across reps).  The full
    counter snapshot rides along so ``--check`` can assert
    counter-exactness, not just result equality.
    """
    from repro.core.system import GlueNailSystem
    from repro.storage.stats import COUNTER_FIELDS

    best_wall = None
    for _ in range(reps):
        system = GlueNailSystem(batch_mode=batch_mode)
        system.load(source)
        for name, rows in facts.items():
            system.facts(name, rows)
        system.compile()
        system.reset_counters()
        t0 = time.perf_counter()
        relation = system.engine.materialize(Atom(goal), arity)
        wall = time.perf_counter() - t0
        rows = set(relation.rows())
        counters = dict(zip(COUNTER_FIELDS, system.db.counters.as_tuple()))
        system.close()
        if best_wall is None or wall < best_wall:
            best_wall = wall
    stats = {
        "rows": len(rows),
        "wall_s": round(best_wall, 4),
        "tuples_scanned": counters["tuples_scanned"],
        "index_lookups": counters["index_lookups"],
        "index_probe_tuples": counters["index_probe_tuples"],
    }
    return stats, rows, counters


def _kernel_microbench(quick: bool) -> dict:
    """Per-tuple overhead of the join hot path, kernels vs row engine.

    Evaluates the skewed-star body directly through
    :func:`~repro.nail.bodyeval.eval_rule_body_batch` -- no head
    materialization, no fixpoint bookkeeping -- so the wall clock divided
    by tuple touches (scans + lookups + probed tuples, identical across
    modes by the counter-parity contract) is the interpreter overhead per
    tuple of actual join work.  Best of three runs per mode.
    """
    from repro.col import Batch
    from repro.nail.bodyeval import eval_rule_body_batch
    from repro.nail.rules import prepare_rules

    n, hubs = (1200, 20) if quick else (4000, 40)
    db = Database()
    facts = skewed_star_facts(n, hubs)
    for name, rows in facts.items():
        db.declare(name, 2).insert_many(
            tuple(Num(v) for v in row) for row in rows
        )
    info = prepare_rules([parse_program(STAR_RULES).items[0]])[0]

    def rows_fn(pred, arity):
        return db.get(pred.name, arity)

    touch_keys = ("tuples_scanned", "index_lookups", "index_probe_tuples")

    def best_of(mode, reps=3):
        best = None
        for _ in range(reps):
            db.counters.reset()
            t0 = time.perf_counter()
            out = eval_rule_body_batch(info, rows_fn, batch_mode=mode)
            wall = time.perf_counter() - t0
            length = out.length if isinstance(out, Batch) else len(out)
            touches = sum(getattr(db.counters, k) for k in touch_keys)
            if best is None or wall < best[0]:
                best = (wall, length, touches)
        return best

    row_wall, row_n, row_touches = best_of("row")
    col_wall, col_n, col_touches = best_of("columnar")
    assert row_n == col_n and row_touches == col_touches
    return {
        "workload": f"star-{n}x{hubs}-body",
        "bindings": row_n,
        "tuple_touches": row_touches,
        "row_wall_s": round(row_wall, 4),
        "columnar_wall_s": round(col_wall, 4),
        "row_ns_per_tuple": round(row_wall / row_touches * 1e9, 1),
        "columnar_ns_per_tuple": round(col_wall / col_touches * 1e9, 1),
        "overhead_reduction": round(row_wall / max(col_wall, 1e-9), 2),
    }


def main_columnar(args) -> int:
    """The columnar batch-execution workload: batch-friendly closures and
    joins under ``batch_mode="columnar"`` vs the row engine, plus the
    kernel microbenchmark isolating per-tuple interpreter overhead.

    ``--check`` asserts the differential contract: identical row sets AND
    identical values on every counter field between the two modes.
    """
    # The star head projects the join down to its spokes: the 100-way hub
    # fan-out is full join work for both modes, but the output dedup runs
    # over id arrays in the columnar engine and over binding dicts in the
    # row engine.  (A head keeping all 400k bindings is insert-bound --
    # inserts are shared storage cost -- and measures storage, not the
    # kernels; see docs/PERFORMANCE.md.)
    star_proj = "q(X) :- big_a(X, Y) & big_b(Y, Z).\n"
    if args.quick:
        macro = {
            "chain-closure-12x6": (PATH_RULES,
                                   {"edge": layered_chain_edges(12, 6)},
                                   "path", 2),
            "star-skewed-800x16": (star_proj, skewed_star_facts(800, 16),
                                   "q", 1),
        }
    else:
        macro = {
            "chain-closure-30x10": (PATH_RULES,
                                    {"edge": layered_chain_edges(30, 10)},
                                    "path", 2),
            "star-skewed-4000x40": (star_proj, skewed_star_facts(4000, 40),
                                    "q", 1),
        }
    results = {}
    divergences = []
    for name, (source, facts, goal, arity) in macro.items():
        row_stats, row_rows, row_counters = _run_batchmode_once(
            source, facts, goal, arity, "row"
        )
        col_stats, col_rows, col_counters = _run_batchmode_once(
            source, facts, goal, arity, "columnar"
        )
        entry = {
            "rows": col_stats["rows"],
            "row_wall_s": row_stats["wall_s"],
            "columnar_wall_s": col_stats["wall_s"],
            "speedup": round(
                row_stats["wall_s"] / max(col_stats["wall_s"], 1e-9), 2
            ),
            "tuples_scanned": col_stats["tuples_scanned"],
            "index_lookups": col_stats["index_lookups"],
            "index_probe_tuples": col_stats["index_probe_tuples"],
        }
        line = (
            f"{name:28s} rows={entry['rows']:<7d} row={entry['row_wall_s']:<8.4f} "
            f"col={entry['columnar_wall_s']:<8.4f} speedup={entry['speedup']:.2f}x"
        )
        if args.check:
            ok = row_rows == col_rows and row_counters == col_counters
            line += "  check=" + ("OK" if ok else "DIVERGED")
            if not ok:
                divergences.append(name)
        results[name] = entry
        print(line)

    micro = _kernel_microbench(args.quick)
    print(
        f"{micro['workload']:28s} bindings={micro['bindings']:<7d} "
        f"row={micro['row_ns_per_tuple']}ns/tuple "
        f"col={micro['columnar_ns_per_tuple']}ns/tuple "
        f"reduction={micro['overhead_reduction']:.2f}x"
    )

    out_path = Path(
        args.out
        if args.out
        else Path(__file__).resolve().parent.parent / "BENCH_columnar.json"
    )
    doc = {"workloads": {}, "history": []}
    if out_path.exists():
        try:
            doc = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            pass
    doc["quick"] = args.quick
    doc.update(_runtime_info())
    doc["workloads"] = results
    doc["kernel_microbench"] = micro
    if args.label:
        doc.setdefault("history", []).append(
            {"label": args.label, "quick": args.quick, "workloads": results,
             "kernel_microbench": micro}
        )
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {out_path}")
    if divergences:
        print(f"DIVERGENCE columnar vs row on: {', '.join(divergences)}")
        return 1
    return 0


def workloads(quick: bool):
    if quick:
        return {
            "chain-60": _tc_workload(chain_edges(60)),
            "tree-d6": _tc_workload(binary_tree_edges(6)),
            "random-40n-80e": _tc_workload(random_graph(40, 80)),
            "negation-20n-50e": _negation_workload(20, 50),
            "hilog-3x20": _hilog_workload(3, 20),
            "magic-chain-100": _magic_workload(100, 49),
            "chain-60-naive-baseline": _tc_workload(chain_edges(60)),
        }
    return {
        "chain-60": _tc_workload(chain_edges(60)),
        "chain-120": _tc_workload(chain_edges(120)),
        "tree-d7": _tc_workload(binary_tree_edges(7)),
        "random-40n-80e": _tc_workload(random_graph(40, 80)),
        "random-60n-180e": _tc_workload(random_graph(60, 180)),
        "negation-30n-90e": _negation_workload(30, 90),
        "hilog-3x30": _hilog_workload(3, 30),
        "magic-chain-200": _magic_workload(200, 99),
        "chain-60-naive-baseline": _tc_workload(chain_edges(60)),
    }


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
    out_path = Path(
        args.out
        if args.out
        else Path(__file__).resolve().parent.parent / "BENCH_mvcc.json"
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
    if divergences:
        print(f"DIVERGENCE lock vs snapshot reads: {', '.join(divergences)}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI-sized workloads")
    parser.add_argument(
        "--check",
        action="store_true",
        help="cross-validate hash-join vs naive vs nested-loop results; "
        "exit nonzero on divergence",
    )
    parser.add_argument(
        "--glue",
        action="store_true",
        help="run the Glue VM workload instead (join-heavy statement "
        "pipeline, planned hash joins vs the nested per-row baseline); "
        "writes BENCH_glue_joins.json by default; --check cross-validates "
        "the two modes",
    )
    parser.add_argument(
        "--subscriptions",
        action="store_true",
        help="run the continuous-query workload instead (N push subscribers "
        "over a mixed insert/delete stream vs the poll-and-requery "
        "baseline); writes BENCH_subscriptions.json by default; --check "
        "verifies a subscriber's replayed deltas against recomputation",
    )
    parser.add_argument(
        "--columnar",
        action="store_true",
        help="run the columnar batch-execution workload instead "
        "(batch-friendly chain closure and skewed star under the columnar "
        "kernels vs the row engine, plus the per-tuple kernel "
        "microbenchmark); writes BENCH_columnar.json by default; --check "
        "asserts identical rows and identical counters across modes",
    )
    parser.add_argument(
        "--mvcc",
        action="store_true",
        help="run the snapshot-read workload instead (reader sessions "
        "timing requests while a writer holds chunky transactions; MVCC "
        "snapshot pins vs the read/write-lock baseline); writes "
        "BENCH_mvcc.json by default; --check asserts readers only ever "
        "saw committed states and both modes converge to identical rows",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (history in an existing file is preserved); "
        "default BENCH_joins.json, BENCH_glue_joins.json with --glue, or "
        "BENCH_subscriptions.json with --subscriptions",
    )
    parser.add_argument(
        "--label", default=None, help="history label for this run (default: none, "
        "run is not appended to history)"
    )
    args = parser.parse_args(argv)

    if args.glue:
        return main_glue(args)
    if args.subscriptions:
        return main_subscriptions(args)
    if args.columnar:
        return main_columnar(args)
    if args.mvcc:
        return main_mvcc(args)
    if args.out is None:
        args.out = str(Path(__file__).resolve().parent.parent / "BENCH_joins.json")

    results = {}
    divergences = []
    for name, run in workloads(args.quick).items():
        if name.endswith("-naive-baseline"):
            stats, rows = run(strategy="naive")
        else:
            stats, rows = run()
        results[name] = stats
        line = (
            f"{name:28s} rows={stats['rows']:<7d} wall={stats['wall_s']:<8.4f} "
            f"scanned={stats['tuples_scanned']:<9d} probes={stats['index_lookups']:<7d} "
            f"rounds={stats['rounds']}"
        )
        if args.check and not name.endswith("-naive-baseline"):
            _, naive_rows = run(strategy="naive")
            _, nested_rows = run(join_mode="nested")
            ok = rows == naive_rows == nested_rows
            line += "  check=" + ("OK" if ok else "DIVERGED")
            if not ok:
                divergences.append(name)
        print(line)

    out_path = Path(args.out)
    doc = {"workloads": {}, "history": []}
    if out_path.exists():
        try:
            doc = json.loads(out_path.read_text())
        except json.JSONDecodeError:
            pass
    doc["quick"] = args.quick
    doc.update(_runtime_info())
    doc["workloads"] = results
    if args.label:
        doc.setdefault("history", []).append(
            {"label": args.label, "quick": args.quick, "workloads": results}
        )
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"\nwrote {out_path}")

    if divergences:
        print(f"DIVERGENCE between evaluators on: {', '.join(divergences)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
