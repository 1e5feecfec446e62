"""Tests for the dependency graph and stratification."""

import pytest

from repro.analysis.depgraph import build_dependency_graph
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
        assert dep.graph.has_edge(("p", (), 1), ("q", (), 1))
        assert dep.graph.has_edge(("p", (), 1), ("r", (), 1))

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
        assert set(dep.graph.successors(p)) == {("names", (), 1), p, ("q", (), 1)}


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
