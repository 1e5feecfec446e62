"""Counting cost: a ``+=`` on a plain and on a per-thread counter block.

Every join step bumps a ``CostCounters`` field.  The query server counts
through ``ThreadLocalCounters``, a ``threading.local`` whose fields are
plain attributes of each thread's ``__dict__``, so an increment runs no
Python frame.  Three timings: 100 000 ``+=`` on ``CostCounters``, the same
on ``ThreadLocalCounters``, and a warm ``call venue_report`` of the
benchmark program on the smoke dataset through an in-process query-server
session (about one increment per row the Glue VM probes).

    PYTHONPATH=src:. python -m pytest benchmarks/bench_counters.py
"""

import importlib.util
from pathlib import Path

from repro.server.server import GlueNailServer
from repro.storage.stats import CostCounters, ThreadLocalCounters

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "work_counters", ROOT / "tools" / "work_counters.py"
)
work_counters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counters)

INCREMENTS = 100_000


def count(counters):
    for _ in range(INCREMENTS):
        counters.inserts += 1


def test_plain_counter_increments(benchmark):
    counters = CostCounters()
    benchmark(count, counters)
    assert counters.inserts % INCREMENTS == 0


def test_thread_local_counter_increments(benchmark):
    counters = ThreadLocalCounters()
    benchmark(count, counters)
    assert counters.aggregate().inserts == counters.inserts > 0
    assert counters.inserts % INCREMENTS == 0


def test_warm_venue_report_in_a_server_session(benchmark):
    with GlueNailServer(program=work_counters.program_text()) as server:
        session = server._new_session()
        for name, rows in work_counters.smoke_dataset().relations():
            session.dispatch({"op": "facts", "name": name, "rows": [list(row) for row in rows]})
        request = {"op": "call", "name": "venue_report"}
        warm = session.dispatch(request)
        assert warm["ok"] and warm["count"] > 0
        assert benchmark(session.dispatch, request)["columns"] == warm["columns"]
