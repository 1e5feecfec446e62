"""Tests for the shared cost-based planner (``repro.opt``).

Covers the public ``optimize()`` facade, the ordering rules every plan
obeys, the differential guarantees that cost order and written order
(``reference_system(written_order=True)``) agree on results and that a
statement compiled
before its facts load agrees with one compiled after, the cost collapse on
adversarially ordered bodies, the unified join-event schema both engines
emit, and the consistent statistics snapshot.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_system
from repro.lang.ast import UpdateSubgoal
from repro.lang.parser import parse_program, parse_statement
from repro.lang.pretty import pretty_subgoal
from repro.opt.passes import optimize
from repro.opt.plan import Plan
from repro.opt.stats import RelationSnapshot
from repro.storage.relation import Relation
from repro.terms.term import Atom, Num
from repro.vm.plan import ScanStep
from tests.conftest import make_system

# --------------------------------------------------------------------- #
# the optimize() facade
# --------------------------------------------------------------------- #


def _body(source: str):
    """The body of the single rule in ``source``."""
    program = parse_program(source)
    return program.items[0].body


class TestOptimizeFacade:
    def test_program_mode_keeps_source_order(self):
        body = _body("q(X, Z) :- a(X, Y) & b(Y, Z) & X < Z.")
        plan = optimize(body, pipeline=())
        assert isinstance(plan, Plan)
        assert plan.order == (0, 1, 2)
        assert plan.ordered_body == tuple(body)
        assert plan.passes == ()

    def test_cost_mode_schedules_small_relation_first(self):
        body = _body("q(X, Z) :- big(X, Y) & tiny(Y, Z).")
        sizes = {"big": 10_000, "tiny": 2}
        plan = optimize(body, stats=lambda pred, arity: sizes.get(str(pred)))
        assert plan.order == (1, 0)  # tiny drives the join

    def test_selection_pulled_forward(self):
        # The comparison only needs X, so it runs right after the literal
        # binding X instead of filtering after the whole join.
        body = _body("q(X, Z) :- a(X) & b(X, Z) & X < 5.")
        sizes = {"a": 100, "b": 100}
        plan = optimize(body, stats=lambda pred, arity: sizes.get(str(pred)))
        assert plan.order == (0, 2, 1)

    def test_estimates_use_distinct_counts(self):
        body = _body("q(X, Z) :- a(X, Y) & b(Y, Z).")
        stats = {
            "a": RelationSnapshot(name="a", arity=2, rows=10, distincts=(10, 5)),
            "b": RelationSnapshot(name="b", arity=2, rows=100, distincts=(5, 100)),
        }
        plan = optimize(body, stats=lambda pred, arity: stats.get(str(pred)))
        # a scans first (10 rows), then b is probed on its col-0 key:
        # 10 bindings * 100/5 matches per binding.
        (step_b,) = [step for step in plan.steps if step.index == 1]
        assert step_b.probe_cols == (0,)
        assert step_b.est_rows == pytest.approx(10 * 100 / 5)
        assert "est~" in plan.describe()[0]

    def test_group_by_estimates_one_binding_per_group(self):
        body = _body("per(V, N) := item(I, V) & group_by(V) & N = count(I).")
        stats = {"item": RelationSnapshot(name="item", arity=2, rows=1000, distincts=(1000, 10))}
        plan = optimize(body, stats=lambda pred, arity: stats.get(str(pred)))
        scan, group, agg = plan.steps
        assert scan.est_rows == 1000
        assert plan.distinct == {"I": 1000, "V": 10}
        assert group.kind == "fixed" and group.est_rows == 10
        # The aggregate bind keeps the per-group estimate.
        assert agg.kind == "fixed" and agg.est_in == agg.est_rows == 10

    def test_group_by_without_distincts_keeps_the_upper_bound(self):
        body = _body("per(V, N) := item(I, V) & group_by(V) & N = count(I).")
        plan = optimize(body, stats=lambda pred, arity: 1000, pipeline=())
        assert plan.distinct == {}
        assert [step.est_rows for step in plan.steps] == [1000, 1000, 1000]

    def test_group_by_is_capped_by_the_running_estimate(self):
        # Four bindings reach the group_by; V x W could form 50 groups.
        body = _body(
            "per(V, W, N) := tiny(I) & item(I, V, W) & group_by(V, W) & N = count(I)."
        )
        stats = {
            "tiny": RelationSnapshot(name="tiny", arity=1, rows=4, distincts=(4,)),
            "item": RelationSnapshot(
                name="item", arity=3, rows=1000, distincts=(1000, 10, 5)
            ),
        }
        plan = optimize(
            body, stats=lambda pred, arity: stats.get(str(pred)), pipeline=()
        )
        assert plan.steps[1].est_rows == pytest.approx(4.0)
        # A fresh variable's distinct count is capped by the bindings so far.
        assert plan.distinct["V"] == pytest.approx(4.0)
        assert plan.steps[2].est_rows == pytest.approx(4.0)

    def test_unknown_group_variable_keeps_the_upper_bound(self):
        body = _body(
            "per(V, Z, N) := item(I, V) & Z = V + 1 & group_by(V, Z) & N = count(I)."
        )
        stats = {"item": RelationSnapshot(name="item", arity=2, rows=1000, distincts=(1000, 10))}
        plan = optimize(
            body, stats=lambda pred, arity: stats.get(str(pred)), pipeline=()
        )
        assert "Z" not in plan.distinct  # bound by an expression, not a scan
        assert plan.steps[2].est_rows == 1000

    def test_pipeline_override_runs_named_passes_only(self):
        body = _body("q(X, Z) :- big(X, Y) & tiny(Y, Z).")
        sizes = {"big": 10_000, "tiny": 2}
        plan = optimize(
            body,
            stats=lambda pred, arity: sizes.get(str(pred)),
            pipeline=("pull-selections",),
        )
        assert plan.order == (0, 1)  # the join-order pass was not requested
        assert plan.passes == ("pull-selections",)


# --------------------------------------------------------------------- #
# the rules every order obeys (paper Section 3.1), without statistics:
# how NAIL! rule bodies are made evaluable and the Glue compiler's
# fallback when a planned order does not bind-check
# --------------------------------------------------------------------- #


def _order(source, **kwargs):
    plan = optimize(parse_statement(source).body, **kwargs)
    return [pretty_subgoal(s) for s in plan.ordered_body]


class TestOrderingRules:
    def test_filters_move_before_scans_when_evaluable(self):
        texts = _order("p(X) := q(X) & r(Y) & X < 5.")
        # X < 5 can run right after q(X); the planner hoists it past r(Y).
        assert texts.index("X < 5") < texts.index("r(Y)")

    def test_negation_scheduled_when_bound(self):
        texts = _order("p(X) := big(Y) & !r(X) & q(X).")
        assert texts.index("!r(X)") > texts.index("q(X)")

    def test_fixed_subgoals_keep_position(self):
        body = parse_statement("p(X) := q(X) & ++log(X) & r(X, Y) & s(Y).").body
        ordered = optimize(body).ordered_body
        assert isinstance(ordered[1], UpdateSubgoal)

    def test_nothing_moves_past_aggregator(self):
        texts = _order("p(M, Y) := q(T) & M = max(T) & r(M, Y).")
        assert texts.index("r(M, Y)") > texts.index("M = max(T)")

    def test_procedure_inputs_stay_bound(self):
        # Written first, the call would otherwise lead: the scans tie on
        # their unbound-argument ratio and ties keep source order.
        texts = _order(
            "p(Y) := f(X, Y) & source(X).",
            call_bound_arity=lambda subgoal: 1 if subgoal.pred.name == "f" else None,
        )
        assert texts == ["source(X)", "f(X, Y)"]

    def test_deterministic(self):
        source = "p(X) := a(X) & b(X) & c(X) & X != 1."
        assert _order(source) == _order(source)

    def test_same_multiset_of_subgoals(self):
        source = "p(X) := a(X, Y) & b(Y, Z) & c(Z) & Z < 4 & !d(X)."
        written = [pretty_subgoal(s) for s in parse_statement(source).body]
        assert sorted(_order(source)) == sorted(written)

    def test_bound_scan_preferred(self):
        # After a(X), the scan b(X, Y) (1 bound arg) beats c(Z, W) (0 bound).
        texts = _order("p(X) := a(X) & c(Z, W) & b(X, Y) & d(Y, Z).")
        assert texts.index("b(X, Y)") < texts.index("c(Z, W)")


# --------------------------------------------------------------------- #
# procedure-local relations are sized by the := that assigns them
# --------------------------------------------------------------------- #

ITEMS = [(f"i{n}", f"v{n % 4}") for n in range(40)]
TAGS = [(f"t{n % 7}", f"i{n % 40}") for n in range(60)]
REPORT_RETURN = (
    "  return(:V, N, M) := per(V, N) & item(I, V) & tag(T, I) &\n"
    "    group_by(V, N) & M = count(T).\n"
)


def _local_scan(source, stmt_index, name="per"):
    """The compiled scan of local ``name`` in statement ``stmt_index`` of
    the only procedure, plus the statement's scan order."""
    system = make_system(source)
    system.facts("item", ITEMS)
    system.facts("tag", TAGS)
    system.facts("extra", [("v9", 1)])
    (proc,) = system.compile().procs.values()
    plan = proc.body[stmt_index].plan
    scans = [step for step in plan if isinstance(step, ScanStep)]
    order = [str(step.ref.pred) for step in scans]
    (local,) = [step for step in scans if str(step.ref.pred) == name]
    return local, order


class TestLocalEstimates:
    def test_assigned_local_is_sized_and_scheduled_first(self):
        source = (
            "proc report(:V, N, M)\nrels per(V, N);\n"
            "  per(V, N) := item(I, V) & group_by(V) & N = count(I).\n"
            + REPORT_RETURN + "end\n"
        )
        local, order = _local_scan(source, 1)
        assert local.est_rows == 4  # one row per venue
        assert order == ["in", "per", "item", "tag"]

    def test_local_extended_by_plus_equals_stays_unknown(self):
        source = (
            "proc report(:V, N, M)\nrels per(V, N);\n"
            "  per(V, N) := item(I, V) & group_by(V) & N = count(I).\n"
            "  per(V, N) += extra(V, N).\n"
            + REPORT_RETURN + "end\n"
        )
        local, order = _local_scan(source, 2)
        assert local.est_rows is None
        assert order[-1] == "per"  # unknown sizes rank after known ones

    def test_local_assigned_inside_repeat_stays_unknown(self):
        source = (
            "proc report(:V, N, M)\nrels per(V, N);\n"
            "  repeat\n"
            "    per(V, N) := item(I, V) & group_by(V) & N = count(I).\n"
            "  until unchanged(per(_, _));\n"
            + REPORT_RETURN + "end\n"
        )
        local, _order = _local_scan(source, 1)
        assert local.est_rows is None

    def test_local_read_before_its_assignment_stays_unknown(self):
        source = (
            "proc report(:V, N, M)\nrels per(V, N);\n"
            + REPORT_RETURN
            + "  per(V, N) := item(I, V) & group_by(V) & N = count(I).\n"
            "end\n"
        )
        local, _order = _local_scan(source, 0)
        assert local.est_rows is None

    def test_hilog_head_leaves_locals_of_its_arity_unknown(self):
        source = (
            "proc report(:V, N, M)\nrels per(V, N);\n"
            "  per(V, N) := item(I, V) & group_by(V) & N = count(I).\n"
            "  R(V, N) := extra(V, N) & R = per.\n"
            + REPORT_RETURN + "end\n"
        )
        local, _order = _local_scan(source, 2)
        assert local.est_rows is None


# --------------------------------------------------------------------- #
# differential: cost order and program order agree on results
# --------------------------------------------------------------------- #

LITERALS = ("e(X, Y)", "f(Y, Z)", "g(Z)")


def make_ordered(source, mode):
    """The product (``"cost"``) or the written-order baseline (``"program"``)."""
    system = reference_system(written_order=mode == "program")
    system.load(source)
    return system


def _answers(mode, body_literals, e_rows, f_rows, g_rows):
    source = "q(X, Z) :- " + " & ".join(body_literals) + "."
    system = make_ordered(source, mode)
    system.facts("e", e_rows)
    system.facts("f", f_rows)
    system.facts("g", g_rows)
    return sorted(system.rows("q", 2).to_python())


small_ints = st.integers(min_value=0, max_value=6)
pairs = st.lists(st.tuples(small_ints, small_ints), min_size=0, max_size=12)
units = st.lists(st.tuples(small_ints), min_size=0, max_size=6)


class TestDifferential:
    @settings(max_examples=25, deadline=None)
    @given(
        perm=st.permutations(LITERALS),
        e_rows=pairs,
        f_rows=pairs,
        g_rows=units,
    )
    def test_cost_equals_program_on_random_bodies(self, perm, e_rows, f_rows, g_rows):
        cost = _answers("cost", perm, e_rows, f_rows, g_rows)
        program = _answers("program", perm, e_rows, f_rows, g_rows)
        assert cost == program

    @settings(max_examples=15, deadline=None)
    @given(
        perm=st.permutations(LITERALS),
        e_rows=pairs,
        f_rows=pairs,
        g_rows=units,
    )
    def test_agreement_with_comparison(self, perm, e_rows, f_rows, g_rows):
        # Cost mode hoists the trailing filter to its earliest admissible
        # slot; program mode runs it where written.  Same answers either way.
        body = tuple(perm) + ("X < Z",)
        cost = _answers("cost", body, e_rows, f_rows, g_rows)
        program = _answers("program", body, e_rows, f_rows, g_rows)
        assert cost == program

    @settings(max_examples=25, deadline=None)
    @given(
        perm=st.permutations(("f(K, Z)", "per(K, N)", "e(Z, W)")),
        e_rows=pairs,
        f_rows=pairs,
    )
    def test_glue_local_sized_by_group_by(self, perm, e_rows, f_rows):
        # The local is sized at compile time from its group_by statement,
        # so cost mode may schedule it anywhere in the later join.
        source = (
            "proc rep(:K, N, Z, W)\nrels per(K, N);\n"
            "  per(K, N) := e(X, K) & group_by(K) & N = count(X).\n"
            "  return(:K, N, Z, W) := " + " & ".join(perm) + ".\n"
            "end\n"
        )
        results = {}
        for mode in ("cost", "program"):
            system = make_ordered(source, mode)
            system.facts("e", e_rows)
            system.facts("f", f_rows)
            results[mode] = sorted(system.call("rep").to_python())
        assert results["cost"] == results["program"]

    def test_glue_statement_differential(self):
        source = "out(X, Z) := big_a(X, Y) & big_b(Y, Z) & tiny(Z)."
        results = {}
        for mode in ("cost", "program"):
            system = make_ordered(source, mode)
            system.facts("big_a", [(i, i % 5) for i in range(60)])
            system.facts("big_b", [(j % 5, j) for j in range(60)])
            system.facts("tiny", [(7,)])
            system.run_script()
            results[mode] = sorted(system.rows("out", 2).to_python())
        assert results["cost"] == results["program"]
        assert results["cost"]  # non-vacuous

    @settings(max_examples=25, deadline=None)
    @given(
        perm=st.permutations(LITERALS + ("X < Z",)),
        e_rows=pairs,
        f_rows=pairs,
        g_rows=units,
    )
    def test_compiled_before_facts_equals_compiled_after(self, perm, e_rows, f_rows, g_rows):
        # Compiled first, the statement has no sizes and re-plans at run
        # time; compiled after the load, it is planned once from the facts.
        source = "q(X, Z) := " + " & ".join(perm) + "."
        results = {}
        for compile_first in (True, False):
            system = make_system(source)
            if compile_first:
                (stmt,) = system.compile().script
                assert stmt.replan is not None
            system.facts("e", e_rows)
            system.facts("f", f_rows)
            system.facts("g", g_rows)
            system.run_script()
            system.run_script()
            results[compile_first] = sorted(system.rows("q", 2).to_python())
        assert results[True] == results[False]


# --------------------------------------------------------------------- #
# cost collapse: the ordered body touches far fewer tuples
# --------------------------------------------------------------------- #


class TestCostCollapse:
    N = 800
    K = 20
    BODY = "big_a(X, Y) & big_b(Y, Z) & tiny(Z)"

    def _run(self, engine, mode):
        # Program order joins the two big relations first (N*N/K
        # intermediate bindings) before the single-row tiny(Z) prunes; cost
        # order starts from tiny and probes backwards through the keys.
        # The same body runs as a NAIL! rule and as a Glue statement.
        if engine == "nail":
            source = f"q(X, Z) :- {self.BODY}."
        else:
            source = f"q(X, Z) := {self.BODY}."
        system = make_ordered(source, mode)
        system.facts("big_a", [(i, i % self.K) for i in range(self.N)])
        system.facts("big_b", [(j % self.K, j) for j in range(self.N)])
        system.facts("tiny", [(7,)])
        system.compile()
        system.reset_counters()
        if engine == "glue":
            system.run_script()
        rows = sorted(system.rows("q", 2).to_python())
        return rows, system.counters.total_tuple_touches

    @pytest.mark.parametrize("engine", ["nail", "glue"])
    def test_cost_order_touches_5x_fewer_tuples(self, engine):
        cost_rows, cost_touches = self._run(engine, "cost")
        program_rows, program_touches = self._run(engine, "program")
        assert cost_rows == program_rows
        assert cost_rows  # the join is non-empty
        assert cost_touches * 5 <= program_touches, (
            f"cost={cost_touches} program={program_touches}"
        )


# --------------------------------------------------------------------- #
# unified join-event schema and plan observability
# --------------------------------------------------------------------- #

JOIN_EVENT_KEYS = {"strategy", "bindings", "source", "key", "est_rows", "actual_rows"}

LOOKUP_PROC = """
proc lookup(X:Y)
  return(X:Y) := a(X, V) & b(V, Y).
end
"""


class TestUnifiedJoinEvents:
    def test_nail_join_events_carry_the_schema(self):
        system = make_system("q(X, Z) :- a(X, Y) & b(Y, Z).", trace=True)
        system.facts("a", [(1, 2), (3, 4)])
        system.facts("b", [(2, 5), (4, 6)])
        result = system.query("q(X, Z)?")
        joins = result.joins
        assert joins, "tracing produced no join events"
        for join in joins:
            assert JOIN_EVENT_KEYS <= set(join)
        keyed = [j for j in joins if j["key"]]
        assert keyed and all(j["actual_rows"] is not None for j in keyed)

    def test_glue_join_events_carry_the_same_schema(self):
        system = make_system(LOOKUP_PROC, trace=True)
        system.facts("a", [(1, 2), (3, 4)])
        system.facts("b", [(2, 5), (4, 6)])
        result = system.call("lookup", [(1,)])
        assert result.to_python() == [(1, 5)]
        joins = result.joins
        assert joins, "tracing produced no join events"
        for join in joins:
            assert JOIN_EVENT_KEYS <= set(join)
        assert any(j["est_rows"] is not None for j in joins)

    def test_explain_analyze_renders_est_vs_actual_for_both_engines(self):
        nail = make_system("q(X, Z) :- a(X, Y) & b(Y, Z).")
        nail.facts("a", [(1, 2)])
        nail.facts("b", [(2, 3)])
        report = nail.explain_analyze("q(X, Z)?")
        assert "Joins (estimated vs actual)" in report
        assert "est" in report and "actual" in report

        glue = make_system(LOOKUP_PROC)
        glue.facts("a", [(1, 2)])
        glue.facts("b", [(2, 3)])
        report = glue.explain_analyze("lookup(1, Y)?")
        assert "Joins (estimated vs actual)" in report
        assert "est~" in report  # the plan lines carry the estimates too

    def test_query_result_exposes_chosen_join_order(self):
        system = make_system("q(X, Z) :- big(X, Y) & tiny(Y, Z).", trace=True)
        system.facts("big", [(i, i % 4) for i in range(100)])
        system.facts("tiny", [(2, 9)])
        result = system.query("q(X, Z)?")
        # The rendered plan shows the scheduled order with estimates ...
        assert "tiny" in result.plan and "est~" in result.plan
        # ... and the join events replay it: tiny was scanned first.
        assert result.joins[0]["name"] == "tiny/2"


# --------------------------------------------------------------------- #
# statistics snapshots
# --------------------------------------------------------------------- #


def _rel(rows):
    relation = Relation(Atom("r"), 2)
    relation.insert_new([(Num(a), Num(b)) for a, b in rows])
    return relation


class TestStatsSnapshot:
    def test_snapshot_rows_and_distincts(self):
        relation = _rel([(i, i % 3) for i in range(9)])
        snap = relation.stats_snapshot()
        assert snap.rows == 9
        assert snap.distincts == (9, 3)
        assert snap.est_matches(()) == pytest.approx(9.0)
        assert snap.est_matches((1,)) == pytest.approx(3.0)
        assert snap.est_matches((0, 1)) == pytest.approx(9 / (9 * 3))

    def test_snapshot_tracks_inserts(self):
        relation = _rel([(i, i % 3) for i in range(9)])
        first = relation.stats_snapshot()
        relation.insert((Num(100), Num(5)))
        second = relation.stats_snapshot()
        assert second.rows == 10
        assert second.distincts == (10, 4)
        assert second.version > first.version

    def test_snapshot_rebuilds_after_delete(self):
        relation = _rel([(i, i % 3) for i in range(9)])
        relation.stats_snapshot()
        relation.delete((Num(8), Num(2)))
        snap = relation.stats_snapshot()
        assert snap.rows == 8
        assert snap.distincts == (8, 3)

    def test_snapshot_is_value_stable(self):
        # Two reads without writes in between are equal: the ledgers are
        # read under one lock acquisition, not field by field.
        relation = _rel([(i, i) for i in range(5)])
        assert relation.stats_snapshot() == relation.stats_snapshot()

