"""E11 -- demand-driven (magic sets) evaluation of bound queries
(Section 2: "the appropriate parts of which are computed on demand").

Expected shape: for a selective point query on a large graph, the magic
rewrite explores only the demanded component; full materialization pays
for the whole IDB.  The gap grows with the amount of graph irrelevant to
the query.
"""

import pytest

from benchmarks._workloads import PATH_RULES, chain_edges, db_with, print_series
from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine, magic_query
from repro.terms.term import Atom, Num, Var

RULES = list(parse_program(PATH_RULES).items)


def make_edges(components, chain_len):
    edges = []
    for c in range(components):
        base = c * 10_000
        edges.extend((base + a, base + b) for a, b in chain_edges(chain_len))
    return edges


def run_full(edges, source):
    db = db_with({"edge": edges})
    engine = NailEngine(db, RULES)
    answers = engine.query(Atom("path"), (Num(source), Var("Y")))
    return answers, db.counters.tuples_scanned


def run_magic(edges, source):
    db = db_with({"edge": edges})
    answers = magic_query(db, RULES, Atom("path"), (Num(source), Var("Y")))
    return answers, db.counters.tuples_scanned


@pytest.mark.parametrize("route", ["full", "magic"])
def test_point_query(benchmark, route):
    edges = make_edges(4, 25)
    fn = run_full if route == "full" else run_magic
    answers, _ = benchmark(fn, edges, 0)
    assert len(answers) == 25


def test_shape_magic_explores_only_the_demand(benchmark):
    rows = []
    gaps = []
    for components in (2, 8):
        edges = make_edges(components, 25)
        full_answers, full_cost = run_full(edges, 0)
        magic_answers, magic_cost = run_magic(edges, 0)
        assert sorted(map(str, full_answers)) == sorted(map(str, magic_answers))
        gaps.append(full_cost / magic_cost)
        rows.append((components, len(magic_answers), magic_cost, full_cost,
                     f"{full_cost / magic_cost:.0f}x"))
    print_series(
        "E11: magic-sets point query vs full materialization (tuples scanned)",
        ("components", "answers", "magic", "full", "full/magic"),
        rows,
    )
    assert gaps[0] > 2
    assert gaps[1] > gaps[0], "gap should grow with irrelevant graph"
    benchmark(run_magic, make_edges(4, 25), 0)
