"""The tier-1 work-counter gate.

Fixed phases of the benchmark program on the smoke dataset (see
``tools/work_counters.py``) must charge exactly the committed baseline:
every ``CostCounters`` field, zeros included, plus WAL commits and fsyncs.
A change that moves a counter on purpose re-baselines by hand with
``tools/work_counters.py --write`` and says which fields moved.

The read phases are also run as requests of an in-process query-server
session, which counts through ``ThreadLocalCounters``: they must charge
the same baseline plus the one snapshot each read pins.
"""

import importlib.util
from pathlib import Path

from repro.server.server import GlueNailServer
from repro.storage.stats import COUNTER_FIELDS

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "work_counters", ROOT / "tools" / "work_counters.py"
)
work_counters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counters)


def test_work_counters_match_the_baseline():
    now = work_counters.run_phases()
    table = work_counters.mismatch_table(work_counters.load_baseline(), now)
    assert not table, "work counters moved from the baseline:\n" + table


def test_a_mismatch_prints_field_baseline_and_now():
    table = work_counters.mismatch_table(
        {"reach": {"inserts": 3, "wal.commits": 0}},
        {"reach": {"inserts": 4, "wal.commits": 0}},
    )
    assert table.splitlines() == [
        "field            baseline         now",
        "reach.inserts           3           4",
    ]


def test_a_server_session_charges_the_baseline_for_each_read():
    data = work_counters.smoke_dataset()
    baseline = work_counters.load_baseline()
    with GlueNailServer(program=work_counters.program_text()) as server:
        session = server._new_session()
        for name, rows in data.relations():
            session.dispatch({"op": "facts", "name": name, "rows": [list(row) for row in rows]})
        # The session's block, which the stats op reports; the op itself
        # pins a snapshot, so reading it here keeps that pin out of a phase.
        block = session.system.counters
        for phase, request in work_counters.read_requests(data).items():
            before = block.snapshot()
            assert session.dispatch(request)["ok"], phase
            after = block.snapshot()
            delta = {name: after[name] - before[name] for name in COUNTER_FIELDS}
            expected = {name: baseline[phase][name] for name in COUNTER_FIELDS}
            # A server read runs on one pinned published snapshot.
            expected["snapshot_reads"] += 1
            expected["snapshot_pins"] += 1
            assert delta == expected, phase
        counted = {name: count for name, count in block.snapshot().items() if count}
        stats = session.dispatch({"op": "stats"})
        # One thread did all the counting, so the server total is its block.
        assert stats["counters"] == stats["server_counters"] == counted
