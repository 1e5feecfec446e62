"""The benchmark's own checks, at ``--scale smoke`` (well under a minute).

    python -m pytest bench/tests -q

Each workload runs once, untraced then traced, in a subprocess exactly as
the driver starts it; the tests then read the contract's last line and the
result document.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# per-layer metrics that must be above zero on the workload designated for
# them: a wrapper that never fires there missed a by-name import binding
BUSY = {
    "point_reads": ["server.decode_ms", "server.dispatch_ms", "server.payload_ms",
                    "server.encode_ms", "server.wire_ms", "server.request_bytes",
                    "server.reply_bytes", "lang.parse_ms", "core.facade_ms", "core.exec_ms",
                    "nail.query_ms", "mvcc.pin_ms", "mvcc.snapshot_reads", "client.read_p50_ms"],
    "analytic_magic": ["nail.magic_ms", "opt.plan_ms", "col.kernel_ms", "col.table_ms",
                       "col.table_builds", "col.table_hits", "client.magic_p50_ms"],
    "analytic_closure": ["lang.parse_ms", "core.compile_ms", "core.compile_calls",
                         "vm.compile_ms", "opt.plan_ms", "nail.query_ms", "col.kernel_ms",
                         "col.intern_ms", "col.atoms", "storage.tuples_scanned",
                         "client.closure_p50_ms"],
    "analytic_report": ["vm.call_ms", "glue.agg_ms", "vm.glue_hash_joins",
                        "vm.materialized_tuples", "client.report_p50_ms"],
    "analytic_export": ["server.payload_ms", "server.encode_ms", "server.reply_bytes",
                        "nail.idb_cache_hits", "client.export_p50_ms"],
    "mixed_rw": ["storage.insert_ms", "txn.commit_ms", "txn.wal_append_ms", "txn.fsync_ms",
                 "txn.wal_commits", "txn.wal_fsyncs", "txn.rows_per_commit",
                 "txn.wal_bytes_per_row", "mvcc.publish_ms", "mvcc.publishes",
                 "sub.on_commit_ms", "sub.notifications_pushed", "server.lock_wait_ms",
                 "nail.idb_delta_repairs", "client.write_p50_ms", "client.notify_p50_ms",
                 "client.read_p50_ms"],
    "ingest_recover": ["storage.insert_ms", "storage.inserts", "storage.checkpoint_ms",
                       "storage.checkpoint_bytes", "storage.load_ms", "txn.replay_ms",
                       "txn.wal_fsyncs", "client.write_p50_ms", "client.txn_p50_ms",
                       "client.txn_batch_p50_ms", "client.commit_p50_ms",
                       "client.checkpoint_p50_ms", "client.rows_per_s", "client.recover_s"],
}
# ... and layers that must be idle, which is what separates the workloads
NO_WRITES = ["txn.wal_commits", "txn.fsync_ms", "storage.insert_ms", "sub.notifications_pushed",
             "par.parallel_joins"]
IDLE = {
    "point_reads": NO_WRITES + ["col.kernel_ms", "vm.call_ms", "nail.magic_ms"],
    "analytic_magic": NO_WRITES + ["vm.call_ms", "glue.agg_ms", "core.compile_calls"],
    "analytic_closure": NO_WRITES + ["vm.call_ms", "nail.magic_ms"],
    "analytic_report": NO_WRITES + ["nail.query_ms", "nail.magic_ms", "opt.plan_ms",
                                    "col.kernel_ms"],
    "analytic_export": NO_WRITES + ["vm.call_ms", "nail.magic_ms", "opt.plan_ms", "col.kernel_ms",
                                    "core.compile_calls"],
    "mixed_rw": ["vm.call_ms", "nail.magic_ms", "storage.checkpoint_ms", "sub.resyncs",
                 "sub.dropped", "par.parallel_joins"],
    "ingest_recover": ["nail.query_ms", "nail.magic_ms", "vm.call_ms", "col.kernel_ms",
                       "sub.notifications_pushed", "bench.unsynced_bytes",
                       "par.parallel_joins"],
}


def run_bench(*arguments, cwd=ROOT, **kwargs):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *arguments],
                          cwd=cwd, capture_output=True, text=True, timeout=170, **kwargs)


@pytest.fixture(scope="module")
def runs():
    """{workload: {trace: run entry of the result document}}, plus last lines."""
    out = {}
    for workload in WORKLOADS:
        done = run_bench("--workload", workload, "--seed", "7", "--scale", "smoke",
                         "--trace", "both")
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        path = next(line.split(": ", 1)[1] for line in lines if line.startswith("result document"))
        with open(os.path.join(ROOT, path), "r", encoding="utf-8") as handle:
            document = json.load(handle)
        out[workload] = {run["trace"]: run for run in document["runs"]}
        out[workload]["document"] = document
        out[workload]["last_line"] = json.loads(lines[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_and_nothing_fails(runs, workload):
    untraced, traced = runs[workload][0], runs[workload][1]
    assert list(untraced["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name, metric in untraced["metrics"].items():
        assert metric["value"] > 0, name            # an end-to-end metric is never 0
        assert metric["unit"] == next(m["unit"] for m in SPEC["end_to_end"] if m["name"] == name)
    for run in (untraced, traced):
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0, run["failure_notes"]
    assert set(runs[workload]["last_line"]) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_designated_layers_are_busy_and_the_others_idle(runs, workload):
    metrics = runs[workload][1]["metrics"]
    assert not runs[workload][1]["detail"]["missing_targets"]
    for name in BUSY[workload]:
        assert metrics[name]["value"] > 0, f"{name} did not fire on {workload}"
    for name in IDLE[workload]:
        assert metrics[name]["value"] == 0, f"{name} is not idle on {workload}"


def test_every_wrapper_has_a_workload_where_it_must_fire():
    from layers import SELF_MS

    designated = {name for names in BUSY.values() for name in names}
    for span_name in {target[0] for target in spans.TARGETS}:
        metric = next(m for m, s in SELF_MS.items() if s == span_name)
        assert metric in designated, span_name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_of_a_request_add_up_to_its_dispatch_span(runs, workload):
    detail = runs[workload][1]["detail"]
    assert 0.9 <= detail["dispatch_coverage_min"] <= detail["dispatch_coverage_max"] <= 1.1


def test_open_loop_lateness_and_trace_overhead_are_reported(runs):
    for workload in WORKLOADS:
        assert "obs.trace_overhead_share" in runs[workload][1]["metrics"]
    assert runs["mixed_rw"][1]["metrics"]["bench.gen_late_p95_ms"]["value"] >= 0
    assert runs["mixed_rw"][1]["latency_ms"][1]["late"]["n"] > 0


def test_provenance_is_recorded_and_keyed_by_commit(runs):
    document = runs["analytic_report"]["document"]
    provenance = document["provenance"]
    for field in ("commit", "source_sha256", "cores", "python", "gil_enabled", "platform"):
        assert field in provenance
    assert document["key"] == (provenance["commit"] or "src-" + provenance["source_sha256"][:12])
    assert document["sizes"]["paper"] == gen.SCALES["smoke"].papers
    assert document["runs"][0]["seed"] == 7


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_requests_other_seed_other_requests(runs, workload):
    first = gen.Dataset(7, "smoke")
    assert first.stream_digest(workload) == gen.Dataset(7, "smoke").stream_digest(workload)
    assert first.stream_digest(workload) != gen.Dataset(8, "smoke").stream_digest(workload)
    assert runs[workload][0]["stream_sha256"] == first.stream_digest(workload)
    # ... while the amount of work asked for does not depend on the seed
    assert first.sizes() == gen.Dataset(8, "smoke").sizes()


def test_budget_and_speed_probe_arithmetic():
    import harness

    budget = harness.Budget(60.0, 3)
    assert [budget.more() for _ in range(5)] == [True, True, True, False, False]
    assert harness.Budget(0.0, None).more()              # the first op always runs
    assert harness.Budget(5.0, None).scheduled(2.0) == 10
    probe = harness.SpeedProbe()
    probe.samples = [(0.0, probe.REFERENCE_MS), (10.0, 2 * probe.REFERENCE_MS)]
    assert probe.scaled([(0.0, 10.0), (10.0, 10.0)]) == [10.0, 5.0]
    assert harness.SpeedProbe().scaled([(0.0, 10.0)]) == [10.0]   # no reading: as measured
    with harness.SpeedProbe() as running:
        time.sleep(0.3)
    assert len(running.samples) >= 2 and not running._thread.is_alive()


def test_oracle_knows_a_wrong_answer():
    data = gen.Dataset(7, "smoke")
    txns = data.write_txns(5)
    history = gen.WriteHistory(data, txns)
    author = txns[2].wrote[1][0]                     # an existing author the writer touches
    states = history.states(author, 0, 5)
    assert states[0] == data.expect_coauthor(author) and len(states[-1]) > len(states[0])
    assert history.states(author, 5, 5) == [states[-1]]
    assert all(txn.coauthor_delta for txn in txns)   # every commit adds IDB rows
    assert all(data.reach[source] for source in data.sources)


def test_refuses_more_connections_than_cores():
    done = run_bench("--workload", "point_reads", "--scale", "smoke",
                     preexec_fn=lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}))
    assert done.returncode == 2 and "refusing" in done.stderr
    assert not done.stdout.strip()


def test_fails_without_printing_a_result_where_there_is_no_product(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = run_bench("--workload", "analytic_magic", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert done.returncode != 0 and not done.stdout.strip()
