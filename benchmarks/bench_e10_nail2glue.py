"""E10 -- the NAIL!-to-Glue compilation pipeline (Sections 1, 10, 11).

    "NAIL! code is compiled into Glue code, simplifying the system design."
    "NAIL! code is compiled into Glue procedures; the Glue optimizer runs
    over all the code."

The bench compiles rule sets to Glue, runs the generated code through the
ordinary Glue pipeline, and checks it computes the same IDB as the native
seminaive engine.  It also prints the gap: the generated fixpoint's wall
time and ``tuples_scanned`` over the native engine's, each timed apart
from loading and compiling.
"""

import time

import pytest

from benchmarks._workloads import PATH_RULES, chain_edges, print_series, random_graph
from repro.core.system import GlueNailSystem
from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine
from repro.nail.nail2glue import compile_rules_to_glue
from repro.storage.database import Database
from repro.terms.term import Atom

STRATIFIED = """
reach(X) :- start(X).
reach(Y) :- reach(X) & edge(X, Y).
unreach(X) :- node(X) & !reach(X).
"""


def prepare_generated(rules_text, facts):
    rules = list(parse_program(rules_text).items)
    result = compile_rules_to_glue(rules)
    system = GlueNailSystem()
    system.load(result.source)
    for name, rows in facts.items():
        system.facts(name, rows)
    system.compile()
    system.reset_counters()
    return system, result


def run_generated(rules_text, facts):
    system, result = prepare_generated(rules_text, facts)
    system.call(result.driver_proc)
    return system, result


def prepare_native(rules_text, facts):
    db = Database()
    for name, rows in facts.items():
        db.facts(name, rows)
    db.counters.reset()
    return NailEngine(db, list(parse_program(rules_text).items))


def run_native(rules_text, facts):
    engine = prepare_native(rules_text, facts)
    engine.materialize_all()
    return engine


def fixpoint_cost(route, rules_text, facts, repeats=5):
    """Best-of-``repeats`` wall seconds and the ``tuples_scanned`` of one
    route's fixpoint alone: the driver call, or ``materialize_all``."""
    best = float("inf")
    for _ in range(repeats):
        if route == "generated":
            system, result = prepare_generated(rules_text, facts)
            counters = system.db.counters
            start = time.perf_counter()
            system.call(result.driver_proc)
        else:
            engine = prepare_native(rules_text, facts)
            counters = engine.db.counters
            start = time.perf_counter()
            engine.materialize_all()
        best = min(best, time.perf_counter() - start)
    return best, counters.tuples_scanned


@pytest.mark.parametrize("route", ["generated", "native"])
def test_transitive_closure(benchmark, route):
    facts = {"edge": chain_edges(25)}
    if route == "generated":
        system, result = benchmark(run_generated, PATH_RULES, facts)
        assert len(system.rows("path", 2)) == 25 * 26 // 2
    else:
        engine = benchmark(run_native, PATH_RULES, facts)
        assert len(engine.materialize(Atom("path"), 2)) == 25 * 26 // 2


def test_shape_generated_matches_native(benchmark):
    workloads = {
        "tc chain-25": (PATH_RULES, {"edge": chain_edges(25)}, [("path", 2)]),
        "tc random": (PATH_RULES, {"edge": random_graph(25, 50)}, [("path", 2)]),
        "stratified": (
            STRATIFIED,
            {
                "edge": chain_edges(15),
                "node": [(i,) for i in range(30)],
                "start": [(0,)],
            },
            [("reach", 1), ("unreach", 1)],
        ),
    }
    rows = []
    for name, (rules_text, facts, outputs) in workloads.items():
        system, result = run_generated(rules_text, facts)
        engine = run_native(rules_text, facts)
        for pred, arity in outputs:
            generated = system.rows(pred, arity)
            native = engine.materialize(Atom(pred), arity).sorted_rows()
            assert generated == native, (name, pred)
        rows.append(
            (
                name,
                len(result.stratum_procs),
                sum(len(system.rows(p, a)) for p, a in outputs),
                "identical",
            )
        )
    print_series(
        "E10: NAIL!->Glue generated code vs native engine",
        ("workload", "strata", "IDB tuples", "result"),
        rows,
    )
    benchmark(run_generated, PATH_RULES, {"edge": chain_edges(25)})


def test_gap_generated_over_native():
    rows = []
    for name, edges in {
        "chain(200)": chain_edges(200),
        "random(300, 900)": random_graph(300, 900),
    }.items():
        facts = {"edge": edges}
        gen_s, gen_scanned = fixpoint_cost("generated", PATH_RULES, facts)
        nat_s, nat_scanned = fixpoint_cost("native", PATH_RULES, facts)
        rows.append(
            (
                name,
                f"{gen_s * 1000:.1f}",
                f"{nat_s * 1000:.1f}",
                f"{gen_s / nat_s:.2f}x",
                f"{gen_scanned / nat_scanned:.2f}x",
            )
        )
    print_series(
        "E10: fixpoint only, generated / native",
        ("graph", "generated ms", "native ms", "wall ratio", "scanned ratio"),
        rows,
    )
