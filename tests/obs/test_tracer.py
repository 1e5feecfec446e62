"""The tracing hub: spans, sinks, determinism and zero-cost-off."""

import io
import json
import random

import pytest

from repro.baselines.reference import reference_system
from repro.core.system import GlueNailSystem
from repro.obs.tracer import CollectingSink, JsonLinesSink, NULL_SPAN, Tracer
from repro.storage.stats import CostCounters


def _system(**kwargs):
    system = GlueNailSystem(**kwargs)
    system.load(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y) & edge(Y, Z).
        """
    )
    system.facts("edge", [(1, 2), (2, 3), (3, 4)])
    return system


class TestTracerCore:
    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = Tracer()
        assert tracer.span("query", "q") is NULL_SPAN
        assert tracer.span("stmt", "s") is NULL_SPAN

    def test_null_span_drops_writes_and_stays_shared(self):
        # Span sites run the same code traced or not, so the disabled span
        # takes the sites' writes -- and must keep none of them.
        tracer = Tracer()
        with tracer.span("stratum", "s") as span:
            span.rows = 5
            span.attrs["rounds"] = 3
        assert span is NULL_SPAN
        assert NULL_SPAN.rows is None
        assert NULL_SPAN.attrs == {}
        assert tracer.span("rule", "r") is NULL_SPAN

    def test_events_only_reach_sinks_while_enabled(self):
        tracer = Tracer()
        sink = CollectingSink()
        tracer.event("step", "before-sink")  # dropped: disabled
        tracer.add_sink(sink)
        tracer.event("step", "counted")
        tracer.remove_sink(sink)
        tracer.event("step", "after-sink")  # dropped again
        assert [e.name for e in sink.events] == ["counted"]
        assert not tracer.enabled

    def test_span_nesting_assigns_seq_in_program_order(self):
        tracer = Tracer()
        sink = tracer.add_sink(CollectingSink())
        with tracer.span("query", "outer"):
            with tracer.span("stmt", "inner-1"):
                pass
            with tracer.span("stmt", "inner-2"):
                pass
        # Sinks see children first (exit order) ...
        assert [e.name for e in sink.events] == ["inner-1", "inner-2", "outer"]
        # ... but seq/depth reconstruct the program-order tree.
        ordered = sorted(sink.events, key=lambda e: e.seq)
        assert [(e.name, e.depth) for e in ordered] == [
            ("outer", 0),
            ("inner-1", 1),
            ("inner-2", 1),
        ]

    def test_span_records_counter_deltas(self):
        counters = CostCounters()
        tracer = Tracer(counters)
        sink = tracer.add_sink(CollectingSink())
        with tracer.span("stmt", "work"):
            counters.inserts += 3
            counters.tuples_scanned += 7
        (event,) = sink.events
        assert event.counters == {"inserts": 3, "tuples_scanned": 7}

    def test_json_lines_sink_emits_one_object_per_line(self):
        stream = io.StringIO()
        tracer = Tracer()
        tracer.add_sink(JsonLinesSink(stream))
        tracer.event("index_build", "r/2 cols=[0]", rows=5)
        with tracer.span("query", "q(X)?") as span:
            span.rows = 1
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["kind"] == "index_build"
        assert first["rows"] == 5
        assert second["kind"] == "query"
        assert second["seq"] > first["seq"]


class TestSystemTracing:
    def test_trace_events_cover_fixpoint_structure(self):
        system = _system(trace=True)
        result = system.query("path(1, Y)?")
        kinds = {e.kind for e in result.trace}
        assert {"query", "stratum", "round", "rule"} <= kinds
        query_events = [e for e in result.trace if e.kind == "query"]
        assert query_events[0].rows == len(result)
        assert query_events[0].attrs["resolution"] == "nail"

    def test_trace_slices_are_per_query(self):
        system = _system(trace=True)
        first = system.query("path(1, Y)?")
        second = system.query("edge(1, Y)?")
        assert first.trace and second.trace
        first_seqs = {e.seq for e in first.trace}
        assert all(e.seq not in first_seqs for e in second.trace)
        assert second.resolution == "edb"

    def test_event_structure_is_deterministic(self):
        def shape(events):
            return [
                (e.kind, e.name, e.rows, dict(e.counters))
                for e in sorted(events, key=lambda e: e.seq)
            ]

        runs = []
        for _ in range(2):
            system = _system(trace=True)
            runs.append(shape(system.query("path(1, Y)?").trace))
        assert runs[0] == runs[1]

    def test_tracing_disabled_leaves_counters_identical(self):
        """Tracing off must not perturb the deterministic cost model."""
        plain = _system()
        plain.query("path(1, Y)?")
        traced = _system(trace=True)
        traced.query("path(1, Y)?")
        assert plain.counters.snapshot() == traced.counters.snapshot()

    def test_disable_tracing_stops_collection(self):
        system = _system()
        system.enable_tracing()
        assert system.query("path(1, Y)?").trace
        system.disable_tracing()
        result = system.query("edge(1, Y)?")
        assert result.trace == []
        assert not system.tracer.enabled

    def test_index_build_emits_event(self):
        system = _system()
        collector = system.enable_tracing()
        relation = system.db.relation("edge", 2)
        relation.build_index((0,))
        (event,) = [e for e in collector.events if e.kind == "index_build"]
        assert event.rows == len(relation)
        assert "edge/2" in event.name and "[0]" in event.name

    def test_materialized_strategy_traces_steps_too(self):
        system = reference_system(materialized=True, trace=True)
        system.load(
            """
            module m;
            export pairs(:X, Y);
            proc pairs(:X, Y)
              return(:X, Y) := edge(X, Y).
            end
            end
            """
        )
        system.facts("edge", [(1, 2), (2, 3)])
        result = system.call("pairs")
        kinds = {e.kind for e in result.trace}
        assert {"call", "proc", "stmt", "step"} <= kinds
        steps = [e for e in result.trace if e.kind == "step"]
        assert all(e.rows is not None for e in steps)


# Every span site runs the same code with and without a sink attached: a
# program that reaches each of them (both VM executors, procedure calls, a
# repeat loop, full fixpoints, an incremental repair, magic sets) must give
# the same rows and the same work counters either way.
PARITY_PROGRAM = """
coauthor(A, B) :- wrote(A, P) & wrote(B, P) & A != B.
reach(P, Q) :- cites(P, Q).
reach(P, R) :- reach(P, Q) & cites(Q, R).
cited(Q) :- cites(_, Q).
uncited(P) :- paper(P, _, _) & !cited(P).

proc venue_report(:V, Papers, Authorships)
rels per_venue(V, N);
  per_venue(V, N) := paper(P, V, _) & group_by(V) & N = count(P).
  return(:V, Papers, Authorships) :=
    per_venue(V, Papers) & paper(P, V, _) & wrote(A, P) &
    group_by(V, Papers) & Authorships = count(A).
end

proc hops(P : N)
rels frontier(Q), seen(Q);
  frontier(Q) := in(P) & cites(P, Q).
  seen(Q) := frontier(Q).
  repeat
    frontier(R) := frontier(Q) & cites(Q, R) & !seen(R).
    seen(R) += frontier(R).
  until empty(frontier(_));
  return(P : N) := in(P) & seen(Q) & group_by(P) & N = count(Q).
end

proc nowhere_report(:V, N)
  return(:V, N) := paper(P, V, _) & V = nowhere & group_by(V) & N = count(P).
end
"""


def _parity_run(system, traced):
    rng = random.Random(7)
    papers = [f"p{i}" for i in range(30)]
    system.load(PARITY_PROGRAM)
    system.facts("paper", [(p, f"v{i % 3}", 1990 + i % 5) for i, p in enumerate(papers)])
    system.facts("wrote", sorted({(f"a{rng.randrange(10)}", p) for p in papers for _ in range(2)}))
    system.facts("cites", sorted({(rng.choice(papers[:i]), p) for i, p in enumerate(papers) if i}))
    collector = system.enable_tracing() if traced else None
    results = [
        system.query("reach(P, Q)?"),
        system.query_magic("reach(p1, Q)?"),
        system.call("venue_report"),
        system.call("hops", [("p0",)]),
    ]
    # The product repairs the cached closure in place; the naive
    # fixpoint rebuilds it.
    system.facts("cites", [("p28", "p29"), ("p29", "p_new")])
    results += [
        system.query("reach(P, Q)?"),
        system.query("uncited(P)?"),
        system.call("nowhere_report"),  # stops at an empty pipeline break
    ]
    outcome = [(sorted(map(repr, r.rows)), r.stats.counters) for r in results]
    kinds = {event.kind for event in collector.events} if traced else set()
    return outcome, system.counters.snapshot(), kinds


@pytest.mark.parametrize("strategy", ["pipelined", "materialized"])
@pytest.mark.parametrize("naive", [False, True], ids=["product", "naive"])
def test_a_sink_changes_no_rows_and_no_counters(strategy, naive):
    def build():
        return reference_system(
            naive_fixpoint=naive, materialized=strategy == "materialized"
        )

    plain, plain_total, _ = _parity_run(build(), traced=False)
    traced, traced_total, kinds = _parity_run(build(), traced=True)
    assert traced == plain
    assert traced_total == plain_total
    assert all(rows for rows, _counters in plain[:-1])
    assert plain[-1][0] == []
    fixpoint = {"pass"} if naive else {"round", "incremental_round"}
    assert {"proc", "stmt", "step", "repeat", "stratum", "magic"} | fixpoint <= kinds
