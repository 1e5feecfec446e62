"""Shared workload generators and reporting helpers for the benchmarks.

Every experiment (E1-E12, F1 in DESIGN.md) regenerates the qualitative
series behind one of the paper's Section 9-10 claims.  Absolute numbers
differ from the 1991 testbed (an IBM PC/RT running Sicstus Prolog); the
*shapes* -- who wins, by roughly what factor, where crossovers fall -- are
asserted inside the benchmarks so a regression flips them red.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.baselines.reference import reference_system
from repro.core.system import GlueNailSystem
from repro.storage.database import Database


def chain_edges(n: int) -> List[Tuple[int, int]]:
    return [(i, i + 1) for i in range(n)]


def random_graph(nodes: int, edges: int, seed: int = 7) -> List[Tuple[int, int]]:
    rng = random.Random(seed)
    out = set()
    while len(out) < edges:
        out.add((rng.randrange(nodes), rng.randrange(nodes)))
    return sorted(out)


def layered_chain_edges(levels: int, width: int) -> List[Tuple[int, int]]:
    """A chain of complete bipartite bundles: ``levels`` layers of ``width``
    nodes each, every node wired to every node of the next layer.  Closure
    over it is chain-shaped (bounded rounds) but each round moves
    ``width``-sized batches through every probe, which is the shape batch
    kernels amortize best."""
    out = []
    for lvl in range(levels):
        for a in range(width):
            for b in range(width):
                out.append((lvl * width + a, (lvl + 1) * width + b))
    return out


def skewed_star_facts(n: int, hubs: int) -> Dict[str, List[Tuple[int, int]]]:
    """A skewed two-relation star: ``n`` spokes on each side funneled
    through ``hubs`` shared hub values, so the join fans out ``(n/hubs)``
    ways per probe and the output is ``n * n / hubs`` rows."""
    return {
        "big_a": [(i, i % hubs) for i in range(n)],
        "big_b": [(j % hubs, j) for j in range(n)],
    }


def binary_tree_edges(depth: int) -> List[Tuple[int, int]]:
    out = []
    for node in range(2 ** depth - 1):
        out.append((node, 2 * node + 1))
        out.append((node, 2 * node + 2))
    return out


PATH_RULES = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""

STAR_RULES = """
q(X, Z) :- big_a(X, Y) & big_b(Y, Z).
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


def system_with(source: str, facts: Dict[str, Sequence[tuple]], **kwargs) -> GlueNailSystem:
    """A compiled system with ``facts`` loaded and counters reset; oracle
    flags such as ``written_order=True`` select a baseline (see
    :mod:`repro.baselines.reference`)."""
    system = reference_system(**kwargs)
    if source:
        system.load(source)
    for name, rows in facts.items():
        system.facts(name, rows)
    system.compile()
    system.reset_counters()
    return system


def db_with(facts: Dict[str, Sequence[tuple]]) -> Database:
    db = Database()
    for name, rows in facts.items():
        db.facts(name, rows)
    db.counters.reset()
    return db


def print_series(title: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Print one experiment's table (the 'rows the paper reports')."""
    print(f"\n--- {title} ---")
    widths = [max(len(str(h)), 12) for h in header]
    print("  " + "  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  " + "  ".join(str(v).rjust(w) for v, w in zip(row, widths)))


def generate_program(statements: int, seed: int = 3) -> str:
    """A synthetic Glue/NAIL! program with ``statements`` statements, for
    the compile-speed experiment (E1).  Mixes statement shapes so the
    compiler exercises scans, joins, comparisons, aggregates and rules."""
    rng = random.Random(seed)
    lines = []
    shapes = [
        "out{i}(X, Y) := src{a}(X, W) & src{b}(W, Y).",
        "out{i}(X, Y) += src{a}(X, Y) & X != Y.",
        "out{i}(X, M) := src{a}(X, V) & group_by(X) & M = max(V).",
        "out{i}(X, D) := src{a}(X, V) & D = V * 2 + 1.",
        "out{i}(X) -= src{a}(X, _).",
    ]
    rules = [
        "derived{i}(X, Y) :- src{a}(X, Y) & !src{b}(Y, X).",
        "derived{i}(X, Z) :- src{a}(X, Y) & src{b}(Y, Z).",
    ]
    for i in range(statements):
        template = rng.choice(shapes + rules)
        lines.append(template.format(i=i, a=rng.randrange(5), b=rng.randrange(5)))
    return "\n".join(lines)
