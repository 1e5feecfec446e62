"""Differential tests: the columnar kernels vs the row engine.

The columnar layer promises *exactness*: kernels charge the same cost
counters the row engine charges for the same logical work (kernel-cache
activity is reported only through ``batch_kernel`` trace events), so every
workload here must agree on result rows AND on every counter field --
including the per-literal probe/scan accounting, which is what keeps the
cost planner's feedback identical across modes.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_system
from repro.core.query import rows_to_python
from repro.storage.stats import COUNTER_FIELDS

PATH = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""

UNREACHABLE = PATH + """
node(X) :- edge(X, _).
node(Y) :- edge(_, Y).
unreachable(X, Y) :- node(X) & node(Y) & !path(X, Y).
"""

DEGREE = """
deg(X, N) :- edge(X, _) & group_by(X) & N = count(X).
"""


def make_system(source="", row_engine=False, **kwargs):
    system = reference_system(row_engine=row_engine, **kwargs)
    if source:
        system.load(source)
    return system


def all_counters(system):
    return dict(zip(COUNTER_FIELDS, system.counters.as_tuple()))


def random_edges(nodes, edges, seed):
    rng = random.Random(seed)
    out = set()
    while len(out) < edges:
        out.add((rng.randrange(nodes), rng.randrange(nodes)))
    return sorted(out)


def run_pair(source, facts, out_preds, script=False, **kwargs):
    """Evaluate a workload under the row engine and the columnar kernels;
    assert both row sets and ALL cost counters agree; return the columnar
    system and its results."""
    results = {}
    systems = {}
    for mode in ("row", "columnar"):
        system = make_system(source, row_engine=mode == "row", **kwargs)
        for name, rows in facts.items():
            system.facts(name, rows)
        if script:
            system.run_script()
        results[mode] = {
            (name, arity): sorted(
                rows_to_python(system.rows(name, arity).rows)
            )
            for name, arity in out_preds
        }
        systems[mode] = system
    assert results["columnar"] == results["row"]
    assert all_counters(systems["columnar"]) == all_counters(systems["row"])
    return systems["columnar"], results["columnar"]


# ------------------------------------------------------------------ #
# NAIL! fixpoints
# ------------------------------------------------------------------ #


class TestNailDifferential:
    def test_chain_closure(self):
        _, results = run_pair(
            PATH, {"edge": [(i, i + 1) for i in range(120)]}, [("path", 2)]
        )
        assert len(results[("path", 2)]) == 120 * 121 // 2

    def test_random_graph_closure(self):
        run_pair(PATH, {"edge": random_edges(60, 300, seed=11)}, [("path", 2)])

    def test_negation_stratum(self):
        _, results = run_pair(
            UNREACHABLE,
            {"edge": random_edges(40, 40, seed=5)},
            [("path", 2), ("unreachable", 2)],
        )
        assert results[("unreachable", 2)]

    def test_repeated_variables(self):
        # Repeated head/body variables exercise the eq-check filters both
        # in the probe-table build and in the broadcast kernel.
        source = PATH + """
mutual(X, Y) :- path(X, Y) & path(Y, X).
selfloop(X) :- path(X, X).
"""
        edges = random_edges(20, 60, seed=3)
        _, results = run_pair(
            source, {"edge": edges}, [("mutual", 2), ("selfloop", 1)]
        )
        assert results[("selfloop", 1)]

    def test_compound_residue_fallback(self):
        # Compound-term arguments are outside the id-array representation:
        # those literals fall back to the row engine per literal, and the
        # fallback must still be counter-exact.
        source = """
unwrapped(X, Y) :- holds(pair(X, Y)).
linked(X, Z) :- holds(pair(X, Y)) & edge(Y, Z).
"""
        facts = {
            "holds": [(("pair", i, i + 1),) for i in range(30)],
            "edge": [(i, 10 * i) for i in range(40)],
        }
        _, results = run_pair(
            source, facts, [("unwrapped", 2), ("linked", 2)]
        )
        assert len(results[("unwrapped", 2)]) == 30
        assert results[("linked", 2)]

    def test_aggregates_fall_back_to_row(self):
        _, results = run_pair(
            DEGREE, {"edge": random_edges(40, 400, seed=7)}, [("deg", 2)]
        )
        assert results[("deg", 2)]

    def test_incremental_repair(self):
        row = make_system(PATH, row_engine=True)
        col = make_system(PATH)
        base = random_edges(40, 150, seed=13)
        extra = [(i + 40, i + 41) for i in range(80)]
        for system in (row, col):
            system.facts("edge", base)
            system.rows("path", 2)  # materialize, then repair after deltas
            system.facts("edge", extra)
        first = sorted(rows_to_python(row.rows("path", 2).rows))
        second = sorted(rows_to_python(col.rows("path", 2).rows))
        assert first == second
        assert all_counters(col) == all_counters(row)
        assert col.counters.idb_delta_repairs > 0

    @settings(deadline=None, max_examples=20)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)),
            min_size=0,
            max_size=40,
        ),
        with_negation=st.booleans(),
    )
    def test_property_differential(self, edges, with_negation):
        source = UNREACHABLE if with_negation else PATH
        preds = [("path", 2)] + ([("unreachable", 2)] if with_negation else [])
        run_pair(source, {"edge": sorted(set(edges))}, preds)


# ------------------------------------------------------------------ #
# Glue statement joins
# ------------------------------------------------------------------ #


class TestGlueDifferential:
    def test_two_way_statement_join(self):
        _, results = run_pair(
            "out(X, Z) := r(X, Y) & s(Y, Z).",
            {"r": random_edges(25, 200, seed=1), "s": random_edges(25, 200, seed=2)},
            [("out", 2)],
            script=True,
        )
        assert results[("out", 2)]

    def test_statement_negation(self):
        run_pair(
            "no_link(X, Y) := node(X) & node(Y) & !edge(X, Y).",
            {
                "node": [(i,) for i in range(25)],
                "edge": random_edges(25, 100, seed=4),
            },
            [("no_link", 2)],
            script=True,
        )

    @settings(deadline=None, max_examples=15)
    @given(
        r=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30),
        s=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30),
    )
    def test_property_statement_join(self, r, s):
        run_pair(
            "out(X, Z) := r(X, Y) & s(Y, Z).",
            {"r": sorted(set(r)), "s": sorted(set(s))},
            [("out", 2)],
            script=True,
        )


# ------------------------------------------------------------------ #
# observability
# ------------------------------------------------------------------ #


class TestBatchKernelTracing:
    def test_batch_kernel_events_fire(self):
        from repro.obs.tracer import CollectingSink

        system = make_system(PATH)
        system.facts("edge", [(i, i + 1) for i in range(20)])
        sink = CollectingSink()
        system.tracer.add_sink(sink)
        try:
            system.rows("path", 2)
        finally:
            system.tracer.remove_sink(sink)
        kernels = [e for e in sink.events if e.kind == "batch_kernel"]
        assert kernels
        assert {e.attrs["kernel"] for e in kernels} <= {
            "probe", "broadcast", "anti-member", "anti-static", "anti-probe",
        }
        # Repeated rounds against the static edge relation reuse the
        # cached kernel state.
        assert any(e.attrs.get("cache") == "hit" for e in kernels)

    def test_row_mode_emits_no_kernel_events(self):
        from repro.obs.tracer import CollectingSink

        system = make_system(PATH, row_engine=True)
        system.facts("edge", [(i, i + 1) for i in range(20)])
        sink = CollectingSink()
        system.tracer.add_sink(sink)
        try:
            system.rows("path", 2)
        finally:
            system.tracer.remove_sink(sink)
        assert not [e for e in sink.events if e.kind == "batch_kernel"]

    def test_explain_analyze_renders_kernel_table(self):
        system = make_system(PATH)
        system.facts("edge", [(i, i + 1) for i in range(10)])
        report = system.explain_analyze("path(X, Y)?")
        assert "Batch kernels (columnar execution)" in report

    def test_glue_probe_kernel_event(self):
        from repro.obs.tracer import CollectingSink

        system = make_system()
        system.facts("r", random_edges(10, 30, seed=2))
        system.facts("s", random_edges(10, 30, seed=6))
        system.load("out(X, Z) := r(X, Y) & s(Y, Z).")
        sink = CollectingSink()
        system.tracer.add_sink(sink)
        try:
            system.run_script()
        finally:
            system.tracer.remove_sink(sink)
        glue = [
            e for e in sink.events
            if e.kind == "batch_kernel" and e.name.startswith("glue:")
        ]
        assert glue
        assert glue[0].attrs["kernel"] == "probe"


class TestBroadcastEncodeCache:
    """Seminaive broadcast kernels keep their encoded id-columns alive
    across rounds (on the relation, per cols and version) instead of
    re-interning the same relation every delta round -- with zero counter
    drift."""

    SOURCE = """
reach(X) :- seed(X).
reach(Y) :- reach(X) & edge(X, Y).
pairs(X, Y) :- reach(X) & label(Y).
"""

    def facts(self):
        return {
            "seed": [(0,)],
            "edge": [(i, i + 1) for i in range(25)],
            "label": [("a",), ("b",), ("c",)],
        }

    def test_rows_and_counters_match_the_row_engine(self):
        system, results = run_pair(self.SOURCE, self.facts(), [("pairs", 2)])
        assert len(results[("pairs", 2)]) == 26 * 3
        # The cartesian literal's operand columns were encoded once and
        # reused across the 20+ delta rounds.
        ctx = system.db.columnar
        label = system.db.get("label", 1)
        assert (ctx, "broadcast", (0,)) in label.kernel_tables, (
            "broadcast encode cache never populated"
        )
        assert ctx.hits > 0

    def test_cache_survives_incremental_requery(self):
        system, _ = run_pair(self.SOURCE, self.facts(), [("pairs", 2)])
        system.facts("edge", [(25, 26)])
        assert len(system.rows("pairs", 2)) == 27 * 3
        system.facts("label", [("d",)])  # new version: entry re-encodes
        assert len(system.rows("pairs", 2)) == 27 * 4
