"""E6 -- uniondiff-backed seminaive vs. naive evaluation (Section 10).

    "it will implement a 'uniondiff' operator in order to support compiled
    recursive NAIL! queries."

Expected shape: seminaive beats naive on every recursive workload, and the
gap *grows* with recursion depth (naive re-derives the whole relation each
round: quadratic-in-rounds extra work).
"""

import pytest

from benchmarks._workloads import (
    PATH_RULES,
    binary_tree_edges,
    chain_edges,
    db_with,
    print_series,
    random_graph,
)
from repro.baselines.reference import reference_engine
from repro.lang.parser import parse_program
from repro.terms.term import Atom

RULES = list(parse_program(PATH_RULES).items)


def evaluate(strategy, edges):
    db = db_with({"edge": edges})
    engine = reference_engine(db, RULES, naive_fixpoint=strategy == "naive")
    relation = engine.materialize(Atom("path"), 2)
    return len(relation), db.counters.tuples_scanned, engine.rounds_run


GRAPHS = {
    "chain-30": chain_edges(30),
    "tree-d6": binary_tree_edges(6),
    "random-40n-80e": random_graph(40, 80),
}


@pytest.mark.parametrize("strategy", ["seminaive", "naive"])
def test_transitive_closure(benchmark, strategy):
    tuples, _, _ = benchmark(evaluate, strategy, GRAPHS["chain-30"])
    assert tuples == 30 * 31 // 2


def test_shape_seminaive_beats_naive_gap_grows(benchmark):
    rows = []
    ratios = []
    for name, edges in GRAPHS.items():
        semi_tuples, semi_cost, semi_rounds = evaluate("seminaive", edges)
        naive_tuples, naive_cost, naive_rounds = evaluate("naive", edges)
        assert semi_tuples == naive_tuples  # identical fixpoint
        ratio = naive_cost / semi_cost
        ratios.append((name, ratio))
        rows.append((name, semi_tuples, semi_cost, naive_cost, f"{ratio:.1f}x"))
        assert naive_cost > semi_cost
    print_series(
        "E6: seminaive (uniondiff) vs naive (tuples scanned to fixpoint)",
        ("graph", "|path|", "seminaive", "naive", "naive/semi"),
        rows,
    )
    # The gap grows with recursion depth: deeper chains widen the ratio.
    shallow = evaluate("naive", chain_edges(10))[1] / evaluate("seminaive", chain_edges(10))[1]
    deep = evaluate("naive", chain_edges(40))[1] / evaluate("seminaive", chain_edges(40))[1]
    assert deep > shallow
    benchmark(evaluate, "seminaive", GRAPHS["chain-30"])
