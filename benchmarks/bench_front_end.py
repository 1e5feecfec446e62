"""The front end on a point read: lexing, parsing and one dispatch.

A ``point_reads`` page of the end-to-end benchmark sends three one-literal
queries.  Timed here: ``tokenize`` and ``parse_query`` of each of the three
shapes, ``parse_program`` of ``bench/program.glue``, and one in-process
``Session.dispatch`` of ``paper(P, V, Y)?`` on a server over the smoke
dataset (decode and the wire are not in it).  Under
``--benchmark-disable`` each test makes its call once and checks only
the answer, with no timing bound.

    PYTHONPATH=src:. python -m pytest benchmarks/bench_front_end.py
"""

import importlib.util
from pathlib import Path

import pytest

from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program, parse_query
from repro.server.server import GlueNailServer

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "work_counters", ROOT / "tools" / "work_counters.py"
)
work_counters = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(work_counters)

QUERIES = ("paper(p17, V, Y)?", "wrote(A, p17)?", "coauthor(a3, B)?")


@pytest.mark.parametrize("text", QUERIES)
def test_tokenize_point_read(benchmark, text):
    assert benchmark(tokenize, text)[-1].value is None


@pytest.mark.parametrize("text", QUERIES)
def test_parse_point_read(benchmark, text):
    assert len(benchmark(parse_query, text).args) == 2 + text.startswith("paper")


def test_parse_bench_program(benchmark):
    text = (ROOT / "bench" / "program.glue").read_text()
    assert benchmark(parse_program, text).items


def test_dispatch_point_read(benchmark):
    dataset = work_counters.smoke_dataset()
    with GlueNailServer(program=(ROOT / "bench" / "program.glue").read_text()) as server:
        session = server._new_session()
        for name, rows in dataset.relations():
            session.dispatch({"op": "facts", "name": name, "rows": [list(r) for r in rows]})
        paper = dataset.paper_label[17]
        request = {"op": "query", "q": f"paper({paper}, V, Y)?"}
        reply = benchmark(session.dispatch, request)
        session.release()
    assert reply["ok"] and [column[0] for column in reply["columns"]] == [
        *dataset.paper_row[paper]]
