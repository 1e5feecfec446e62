"""Determinism: identical inputs give identical outputs, runs, and dumps."""

import os
import sys

from repro.baselines.reference import reference_system
from repro.core.system import GlueNailSystem
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program

PROGRAM = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).

proc spread(:X, Y)
rels acc(A, B);
  acc(X, Y) := edge(X, Y).
  repeat
    acc(X, Y) += acc(X, Z) & edge(Z, Y).
  until unchanged(acc(_, _));
  return(:X, Y) := acc(X, Y) & group_by(X) & C = count(Y) & C >= 1.
end
"""

FACTS = [(3, 1), (1, 2), (2, 3), (0, 1), (5, 0)]


def run_once():
    system = GlueNailSystem()
    system.load(PROGRAM)
    system.facts("edge", FACTS)
    query = [tuple(map(str, row)) for row in system.query("path(1, Y)?")]
    called = [tuple(map(str, row)) for row in system.call("spread")]
    counters = system.counters.snapshot()
    return query, called, counters


class TestDeterminism:
    def test_repeated_runs_identical(self):
        first = run_once()
        second = run_once()
        assert first == second

    def test_dump_identical_across_runs(self, tmp_path):
        paths = []
        for i in range(2):
            system = GlueNailSystem()
            system.load(PROGRAM)
            system.facts("edge", FACTS)
            system.call("spread")
            path = str(tmp_path / f"run{i}.gnd")
            system.save_edb(path)
            paths.append(path)
        with open(paths[0]) as a, open(paths[1]) as b:
            assert a.read() == b.read()

    def test_generated_program_pretty_stable(self):
        sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks"))
        from _workloads import generate_program

        source = generate_program(120, seed=11)
        program = parse_program(source)
        once = pretty_program(program)
        assert parse_program(once) == program
        assert pretty_program(parse_program(once)) == once

    def test_counters_stable_across_strategies_for_reads(self):
        # Same baseline, same program, same work: counters are exact.
        snapshots = []
        for _ in range(2):
            system = reference_system(materialized=True)
            system.load(PROGRAM)
            system.facts("edge", FACTS)
            system.compile()
            system.reset_counters()
            system.query("path(X, Y)?")
            snapshots.append(system.counters.snapshot())
        assert snapshots[0] == snapshots[1]
