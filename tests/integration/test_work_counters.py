"""The tier-1 work-counter gate.

Fixed phases of the benchmark program on the smoke dataset (see
``tools/work_counters.py``) must charge exactly the committed baseline:
every ``CostCounters`` field, zeros included, plus WAL commits and fsyncs.
A change that moves a counter on purpose re-baselines by hand with
``tools/work_counters.py --write`` and says which fields moved.
"""

import importlib.util
from pathlib import Path

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
