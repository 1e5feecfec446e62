"""Pipelined vs. materialized execution (paper Section 9).

The product's pipelined VM and the ``materialized`` baseline must produce
identical results; they differ only in costs -- pipeline breaks,
materializations, duplicate-elimination work.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import rows_to_python
from repro.vm.plan import AggStep, CallStep, ScanStep, UpdateStep
from tests.conftest import make_system


def run_both(source, facts, check_rel, arity, procs=()):
    results = {}
    counters = {}
    for strategy in ("pipelined", "materialized"):
        system = make_system(source, materialized=strategy == "materialized")
        for name, rows in facts.items():
            system.facts(name, rows)
        system.compile()
        system.reset_counters()
        for proc, inputs in procs:
            system.call(proc, inputs)
        if not procs:
            system.run_script()
        results[strategy] = sorted(rows_to_python(system.rows(check_rel, arity)))
        counters[strategy] = system.counters.snapshot()
    return results, counters


CHAIN = {
    "a": [(i, i + 1) for i in range(12)],
    "b": [(i, i + 2) for i in range(12)],
    "c": [(i, i % 3) for i in range(12)],
}


class TestEquivalence:
    def test_join_chain(self):
        results, _ = run_both(
            "out(X, W) := a(X, Y) & b(Y, Z) & c(Z, W).", CHAIN, "out", 2
        )
        assert results["pipelined"] == results["materialized"]
        assert results["pipelined"]  # non-trivial

    def test_aggregate_statement(self):
        results, _ = run_both(
            "out(C, M) := c(X, C) & group_by(C) & M = count(X).", CHAIN, "out", 2
        )
        assert results["pipelined"] == results["materialized"]

    def test_procedure_with_loop(self):
        source = """
        proc tc_e(X:Y)
        rels connected(X, Y);
          connected(X, Y) := in(X) & e(X, Y).
          repeat
            connected(X, Y) += connected(X, Z) & e(Z, Y).
          until unchanged(connected(_, _));
          return(X:Y) := connected(X, Y).
        end
        out(X, Y) := start(X) & tc_e(X, Y).
        """
        facts = {"e": [(1, 2), (2, 3), (3, 1)], "start": [(1,)]}
        results, _ = run_both(source, facts, "out", 2)
        assert results["pipelined"] == results["materialized"]
        assert results["pipelined"] == [[1, 1], [1, 2], [1, 3]] or results[
            "pipelined"
        ] == [(1, 1), (1, 2), (1, 3)]

    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=25),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_random_joins(self, a_rows, b_rows):
        source = """
        out(X, Z) := a(X, Y) & b(Y, Z) & X <= Z.
        agg(Y, N) := a(X, Y) & group_by(Y) & N = count(X).
        """
        facts = {"a": a_rows, "b": b_rows}
        results, _ = run_both(source, facts, "out", 2)
        assert results["pipelined"] == results["materialized"]


class TestCosts:
    def test_no_breaks_without_fixed_subgoals(self):
        _, counters = run_both(
            "out(X, W) := a(X, Y) & b(Y, Z) & c(Z, W).", CHAIN, "out", 2
        )
        assert counters["pipelined"]["pipeline_breaks"] == 0

    def test_aggregator_forces_break(self):
        _, counters = run_both(
            "out(M) := a(X, Y) & M = max(Y).", CHAIN, "out", 1
        )
        assert counters["pipelined"]["pipeline_breaks"] == 1

    def test_update_forces_break(self):
        _, counters = run_both(
            "out(X) := a(X, Y) & ++log(X).", CHAIN, "out", 1
        )
        assert counters["pipelined"]["pipeline_breaks"] >= 1

    def test_materialized_strategy_materializes_every_step(self):
        _, counters = run_both(
            "out(X, W) := a(X, Y) & b(Y, Z) & c(Z, W).", CHAIN, "out", 2
        )
        # Pipelined: one final materialization; materialized: one per step.
        assert (
            counters["materialized"]["materializations"]
            > counters["pipelined"]["materializations"]
        )

    def test_pipelined_cheaper_on_selective_chain(self):
        # A selective filter late in the chain: pipelining avoids storing
        # the intermediate join results.
        source = "out(X, W) := a(X, Y) & b(Y, Z) & c(Z, W) & W = 0."
        _, counters = run_both(source, CHAIN, "out", 2)
        assert (
            counters["pipelined"]["materialized_tuples"]
            < counters["materialized"]["materialized_tuples"]
        )


class TestDedupAtBreaks:
    SOURCE = "out(M) := pairs(X, _) & pairs(X, _) & M = count(X)."

    def test_dedup_flag_preserves_results(self):
        facts = {"pairs": [(1, i) for i in range(6)] + [(2, 0)]}
        for dedup in (True, False):
            system = make_system(self.SOURCE, keep_duplicates=not dedup)
            system.facts("pairs", facts["pairs"])
            system.run_script()
            assert rows_to_python(system.rows("out", 1)) == [(2,)]

    def test_dedup_removes_duplicates_at_break(self):
        facts = [(1, i) for i in range(6)]
        system = make_system(self.SOURCE)
        system.facts("pairs", facts)
        system.compile()
        system.reset_counters()
        system.run_script()
        assert system.counters.dedup_removed > 0


class TestPerGroupCounters:
    """A ``venue_report``-shaped procedure: two group_by aggregates whose
    heads read only group columns and the aggregate, so each break emits
    one row per group instead of widening every member row."""

    SOURCE = """
    proc venue_report(:V, Papers, Authorships)
    rels per_venue(V, N);
      per_venue(V, N) := paper(P, V, _) & group_by(V) & N = count(P).
      return(:V, Papers, Authorships) :=
        per_venue(V, Papers) & paper(P, V, _) & wrote(A, P) &
        group_by(V, Papers) & Authorships = count(A).
    end
    """
    PAPERS = [(f"p{i}", f"v{i % 5}", 1990 + i % 7) for i in range(32)]
    WROTE = [(f"a{(i * 7 + j) % 11}", f"p{i}") for i in range(32) for j in range(1 + (i * i) % 4)]

    def test_break_rows_plus_one_row_per_group(self):
        system = make_system(self.SOURCE)
        system.facts("paper", self.PAPERS)
        system.facts("wrote", self.WROTE)
        system.compile()
        system.reset_counters()
        rows = rows_to_python(system.call("venue_report").rows)
        venue_of = {p: v for p, v, _y in self.PAPERS}
        papers = {v: sum(1 for x in venue_of.values() if x == v) for v in set(venue_of.values())}
        authorships = {v: sum(1 for _a, p in self.WROTE if venue_of[p] == v) for v in papers}
        assert sorted(rows) == sorted((v, papers[v], authorships[v]) for v in papers)
        counters = system.counters.snapshot()
        venues = len(papers)
        # Statement 1: every paper at the break, one row per venue after;
        # statement 2: every authorship at the break, one row per venue.
        assert counters["materialized_tuples"] == (32 + venues) + (48 + venues) == 90
        # per_venue is sized at compile time (5 rows, one per venue), so the
        # return body starts from it: 5 venue probes into paper's V column
        # plus 32 paper probes into wrote's P column make 37 lookups, and
        # the probed buckets hold 32 papers + 48 authorships = 80 tuples.
        assert counters["index_lookups"] == 5 + 32 == 37
        assert counters["index_probe_tuples"] == 32 + 48 == 80
        assert counters["glue_hash_joins"] == 5
        assert counters["pipeline_breaks"] == 2


class TestPlanShapes:
    def test_plan_step_kinds(self):
        system = make_system(
            """
            proc p(:X)
              return(:X) := a(X, Y) & M = max(Y) & ++log(X) & helper(X, Z).
            end
            proc helper(X:Z)
              return(X:Z) := in(X) & Z = X.
            end
            """
        )
        compiled = system.compile()
        proc = compiled.find_proc("p", 1)
        plan = proc.body[0].plan
        kinds = [type(step).__name__ for step in plan]
        assert "ScanStep" in kinds      # in(...) and a(X, Y)
        assert "AggStep" in kinds
        assert "UpdateStep" in kinds
        assert "CallStep" in kinds

    def test_barriers_marked(self):
        assert AggStep.is_barrier and CallStep.is_barrier and UpdateStep.is_barrier
        assert not ScanStep.is_barrier
