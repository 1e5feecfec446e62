"""Term hashing: atoms are ``str`` and numbers ``int`` / ``float`` values.

Every join, duplicate check and index probe hashes and compares ground
terms.  Two timings: ``dict.fromkeys`` over 25 000 two-column rows (the
shape of a relation's row dict), and a warm ``call venue_report`` of the
benchmark program on the smoke dataset (hash joins and two ``group_by``
aggregates in the Glue VM).

    PYTHONPATH=src:. python -m pytest benchmarks/bench_terms.py
"""

import importlib.util
from pathlib import Path

from repro.core.system import GlueNailSystem
from repro.terms.term import Atom, Num

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "work_counters", ROOT / "tools" / "work_counters.py"
)
work_counters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counters)

ROWS = [(Atom(f"a{i % 5000}"), Num(i)) for i in range(25_000)]


def test_dict_fromkeys_two_column_rows(benchmark):
    keys = benchmark(dict.fromkeys, ROWS)
    assert len(keys) == len(ROWS)


def test_warm_venue_report(benchmark):
    system = GlueNailSystem()
    system.load((ROOT / "bench" / "program.glue").read_text())
    for name, rows in work_counters.smoke_dataset().relations():
        system.facts(name, rows)
    warm = system.call("venue_report")
    assert benchmark(system.call, "venue_report") == warm
    assert len(warm) > 0
