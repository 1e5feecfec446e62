#!/usr/bin/env python3
"""Graph analysis four ways: the engineering trade-offs of Sections 9-10.

One reachability problem, four evaluation routes:

  1. NAIL! seminaive (the uniondiff-based design of Section 10),
  2. NAIL! naive (the baseline it replaces),
  3. demand-driven magic sets (on-demand evaluation, Section 2),
  4. a hand-written procedural Glue loop (the "assembler" escape hatch
     of Section 1).

All four agree on answers; the cost counters show who does how much work.

Run:  python examples/graph_analysis.py
"""

from repro import Database, GlueNailSystem, rows_to_python
from repro.baselines.reference import reference_engine
from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine, magic_query
from repro.terms.term import Atom, Num, Var

RULES = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""

GLUE_TC = """
proc tc_e(X:Y)
rels connected(X, Y);
  connected(X, Y) := in(X) & e(X, Y).
  repeat
    connected(X, Y) += connected(X, Z) & e(Z, Y).
  until unchanged(connected(_, _));
  return(X:Y) := connected(X, Y).
end
"""


def ladder_edges(n):
    """A long chain plus a disconnected second component."""
    edges = [(i, i + 1) for i in range(n)]
    edges += [(1000 + i, 1001 + i) for i in range(n)]
    return edges


def main() -> None:
    n = 60
    edges = ladder_edges(n)
    rules = list(parse_program(RULES).items)

    print(f"graph: two chains of {n} edges; query: nodes reachable from 0\n")
    results = {}
    costs = {}

    # 1. seminaive
    db = Database()
    db.facts("edge", edges)
    db.counters.reset()
    engine = NailEngine(db, rules)
    results["seminaive (full)"] = {
        r[1].value for r in engine.query(Atom("path"), (Num(0), Var("Y")))
    }
    costs["seminaive (full)"] = db.counters.tuples_scanned

    # 2. naive
    db = Database()
    db.facts("edge", edges)
    db.counters.reset()
    engine = reference_engine(db, rules, naive_fixpoint=True)
    results["naive (full)"] = {
        r[1].value for r in engine.query(Atom("path"), (Num(0), Var("Y")))
    }
    costs["naive (full)"] = db.counters.tuples_scanned

    # 3. magic sets
    db = Database()
    db.facts("edge", edges)
    db.counters.reset()
    answers = magic_query(db, rules, Atom("path"), (Num(0), Var("Y")))
    results["magic (demand)"] = {r[1].value for r in answers}
    costs["magic (demand)"] = db.counters.tuples_scanned

    # 4. hand-written Glue
    system = GlueNailSystem()
    system.load(GLUE_TC)
    system.facts("e", edges)
    system.compile()
    system.reset_counters()
    rows = system.call("tc_e", [(0,)])
    results["glue tc_e (proc)"] = {r[1] for r in rows_to_python(rows)}
    costs["glue tc_e (proc)"] = system.counters.tuples_scanned

    expected = set(range(1, n + 1))
    print(f"{'route':20s} {'answers':>8s} {'tuples scanned':>15s}  agree?")
    for name in results:
        ok = results[name] == expected
        print(f"{name:20s} {len(results[name]):8d} {costs[name]:15d}  {ok}")

    print(
        "\nShapes to notice (Sections 9-10): naive re-derives everything "
        "every round,\nseminaive touches each fact once per new derivation, "
        "and magic only explores\nthe component the query demands.  The "
        "procedural Glue loop is competitive\nbecause its delta is the whole "
        "connected relation -- the hand-tuned escape\nhatch the paper "
        "compares to writing assembler."
    )


if __name__ == "__main__":
    main()
