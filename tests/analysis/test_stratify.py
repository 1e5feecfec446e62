"""Tests for the dependency graph and stratification."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.depgraph import DependencyGraph, build_dependency_graph
from repro.analysis.stratify import StratificationError, component_is_recursive, stratify
from repro.lang.parser import parse_program


def rules_of(text):
    return list(parse_program(text).items)


def strata_of(text):
    dep = build_dependency_graph(rules_of(text))
    return dep, stratify(dep)


class TestDependencyGraph:
    def test_simple_edges(self):
        dep = build_dependency_graph(rules_of("p(X) :- q(X) & r(X)."))
        assert ("q", (), 1) in dep.edges[("p", (), 1)]
        assert ("r", (), 1) in dep.edges[("p", (), 1)]

    def test_negative_edge_marked(self):
        dep = build_dependency_graph(rules_of("p(X) :- q(X) & !r(X)."))
        assert (("p", (), 1), ("r", (), 1)) in dep.negative_edges()

    def test_aggregate_marks_all_negative(self):
        dep = build_dependency_graph(rules_of("p(M) :- q(T) & M = max(T)."))
        assert (("p", (), 1), ("q", (), 1)) in dep.negative_edges()

    def test_idb_skeletons(self):
        dep = build_dependency_graph(rules_of("p(X) :- q(X).\nq(X) :- e(X)."))
        assert dep.idb_skeletons() == {("p", (), 1), ("q", (), 1)}

    def test_hilog_family_node(self):
        dep = build_dependency_graph(rules_of("students(ID)(N) :- attends(N, ID)."))
        assert ("students", (1,), 1) in dep.idb_skeletons()

    def test_predicate_variable_reads_idb_of_its_arity(self):
        # S ranges over every name, so p/1 reads each NAIL! predicate of
        # arity 1 (itself and q/1), and no NAIL! predicate of arity 2.
        dep = build_dependency_graph(rules_of(
            "p(X) :- names(S) & S(X).\nq(X) :- e(X).\nr(X, Y) :- e2(X, Y)."
        ))
        p = ("p", (), 1)
        assert set(dep.edges[p]) == {("names", (), 1), p, ("q", (), 1)}


class TestStratify:
    def test_single_stratum_recursion(self):
        dep, strata = strata_of(
            "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y) & edge(Y, Z)."
        )
        assert len(strata) == 1
        assert strata[0].skeletons == frozenset({("path", (), 2)})
        assert component_is_recursive(dep, strata[0].skeletons)

    def test_negation_forces_two_strata(self):
        dep, strata = strata_of(
            """
            reach(X) :- source(X).
            reach(Y) :- reach(X) & edge(X, Y).
            unreach(X) :- node(X) & !reach(X).
            """
        )
        assert len(strata) == 2
        assert strata[0].skeletons == frozenset({("reach", (), 1)})
        assert strata[1].skeletons == frozenset({("unreach", (), 1)})

    def test_mutual_recursion_one_component(self):
        dep, strata = strata_of(
            """
            even(X) :- zero(X).
            even(Y) :- odd(X) & succ(X, Y).
            odd(Y) :- even(X) & succ(X, Y).
            """
        )
        assert len(strata) == 1
        assert strata[0].skeletons == frozenset({("even", (), 1), ("odd", (), 1)})

    def test_unstratified_rejected(self):
        with pytest.raises(StratificationError):
            strata_of("p(X) :- q(X) & !p(X).")

    def test_unstratified_through_cycle(self):
        with pytest.raises(StratificationError):
            strata_of(
                """
                a(X) :- e(X) & !b(X).
                b(X) :- a(X).
                """
            )

    def test_aggregate_in_recursion_rejected(self):
        with pytest.raises(StratificationError):
            strata_of("p(X) :- p(T) & X = max(T).")

    def test_negation_on_edb_is_fine(self):
        _, strata = strata_of("p(X) :- q(X) & !edb_rel(X).\nq(X) :- e(X).")
        assert len(strata) == 2

    def test_nonrecursive_component(self):
        dep, strata = strata_of("p(X) :- q(X).\nq(X) :- e(X).")
        for stratum in strata:
            assert not component_is_recursive(dep, stratum.skeletons)

    def test_strata_bottom_up_order(self):
        _, strata = strata_of(
            """
            a(X) :- e(X).
            b(X) :- a(X) & !c(X).
            c(X) :- a(X).
            """
        )
        index_of = {}
        for stratum in strata:
            for skel in stratum.skeletons:
                index_of[skel[0]] = stratum.index
        assert index_of["a"] < index_of["c"] < index_of["b"]


def reachable(edges, start):
    seen, todo = set(), [start]
    while todo:
        for succ in edges[todo.pop()]:
            if succ not in seen:
                seen.add(succ)
                todo.append(succ)
    return seen


@st.composite
def digraphs(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    pairs = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))))
    edges = {node: {} for node in draw(st.permutations(range(size)))}
    for u, v in pairs:
        edges[u][v] = False
    return edges


class TestSccs:
    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_components_are_mutual_reachability_bottom_up(self, edges):
        components = DependencyGraph(edges=edges).sccs()
        reach = {node: reachable(edges, node) | {node} for node in edges}
        expected = {frozenset(v for v in edges if v in reach[u] and u in reach[v])
                    for u in edges}
        assert sorted(map(sorted, components)) == sorted(map(sorted, expected))
        position = {node: i for i, members in enumerate(components) for node in members}
        for u, targets in edges.items():
            for v in targets:
                assert position[v] <= position[u]

    def test_long_chain_needs_no_recursion(self):
        count = 5000
        assert count > sys.getrecursionlimit()
        text = "p0(X) :- e(X).\n" + "".join(
            f"p{i}(X) :- p{i - 1}(X).\n" for i in range(1, count))
        _, strata = strata_of(text)
        assert [next(iter(s.skeletons))[0] for s in strata] == [f"p{i}" for i in range(count)]

    def test_order_does_not_depend_on_the_hash_seed(self):
        root = Path(__file__).resolve().parents[2]
        script = (
            "from repro.analysis.depgraph import build_dependency_graph\n"
            "from repro.analysis.stratify import stratify\n"
            "from repro.lang.ast import RuleDecl\n"
            "from repro.lang.parser import parse_program\n"
            "text = open(%r).read()\n"
            "rules = [i for i in parse_program(text).items if isinstance(i, RuleDecl)]\n"
            "print([sorted(s.skeletons) for s in stratify(build_dependency_graph(rules))])\n"
        ) % str(root / "bench" / "program.glue")
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert "coauthor" in outputs[0]
