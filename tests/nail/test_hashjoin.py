"""Differential tests for the hash-join engine.

Every workload is evaluated three ways -- the product (hash-join
seminaive), the naive fixpoint (through ``repro.baselines.reference``) and
the sqlite3 reference semantics (``tests.oracle``) -- and the result sets
must agree exactly.  A second group asserts the *point* of the engine:
``tuples_scanned`` collapses on indexed joins, against the charge of a
nested-loop join computed in closed form.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import Oracles, reference_engine
from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine, magic_query
from repro.storage.database import Database
from repro.terms.term import Atom, Compound, Num, Var
from tests.differential import canon, oracle_rows

PATH = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""

SAME_GENERATION = """
sg(X, X) :- node(X).
sg(X, Y) :- edge(P, X) & sg(P, Q) & edge(Q, Y).
node(X) :- edge(X, _).
node(Y) :- edge(_, Y).
"""

UNREACHABLE = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
node(X) :- edge(X, _).
node(Y) :- edge(_, Y).
unreachable(X, Y) :- node(X) & node(Y) & !path(X, Y).
"""

HILOG_TC = """
tc(G)(X, Y) :- e(G, X, Y).
tc(G)(X, Z) :- tc(G)(X, Y) & e(G, Y, Z).
"""


def rules_of(text):
    return list(parse_program(text).items)


def chain_edges(n):
    return [(i, i + 1) for i in range(n)]


def tree_edges(depth):
    out = []
    for node in range(2 ** depth - 1):
        out.append((node, 2 * node + 1))
        out.append((node, 2 * node + 2))
    return out


def random_edges(nodes, edges, seed):
    rng = random.Random(seed)
    out = set()
    while len(out) < edges:
        out.add((rng.randrange(nodes), rng.randrange(nodes)))
    return sorted(out)


def materialize_rows(edges, rules_text, pred, arity, naive, fact="edge"):
    db = Database()
    db.facts(fact, edges)
    engine = reference_engine(db, rules_of(rules_text), naive_fixpoint=naive)
    return {tuple(map(canon, row)) for row in engine.materialize(pred, arity).rows()}


def all_ways(edges, rules_text, pred, arity, fact="edge"):
    """The product's rows, the naive fixpoint's and the oracle's."""
    expected = oracle_rows(rules_text, {fact: edges}, [(pred, arity)])
    return [
        materialize_rows(edges, rules_text, pred, arity, naive, fact)
        for naive in (False, True)
    ] + [set(expected[pred, arity])]


class TestDifferential:
    """Hash-join results == naive results == the oracle's results."""

    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_chains(self, n):
        results = all_ways(chain_edges(n), PATH, Atom("path"), 2)
        assert all(r == results[0] for r in results)
        assert len(results[0]) == n * (n + 1) // 2

    @pytest.mark.parametrize("depth", [2, 5])
    def test_trees(self, depth):
        results = all_ways(tree_edges(depth), PATH, Atom("path"), 2)
        assert all(r == results[0] for r in results)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_graphs(self, seed):
        edges = random_edges(25, 60, seed)
        results = all_ways(edges, PATH, Atom("path"), 2)
        assert all(r == results[0] for r in results)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_same_generation(self, seed):
        edges = random_edges(15, 25, seed)
        results = all_ways(edges, SAME_GENERATION, Atom("sg"), 2)
        assert all(r == results[0] for r in results)

    @pytest.mark.parametrize("seed", [6, 7])
    def test_stratified_negation(self, seed):
        edges = random_edges(12, 20, seed)
        results = all_ways(edges, UNREACHABLE, Atom("unreachable"), 2)
        assert all(r == results[0] for r in results)

    @pytest.mark.parametrize("family", ["g0", "g1"])
    def test_hilog_predicate_variables(self, family):
        facts = [
            (f"g{f}", f * 100 + i, f * 100 + i + 1) for f in range(3) for i in range(8)
        ] + [("g1", 105, 101)]  # one cycle in g1
        pred = Compound(Atom("tc"), (Atom(family),))
        results = all_ways(facts, HILOG_TC, pred, 2, fact="e")
        assert all(r == results[0] for r in results)
        assert results[0]

    def test_magic_agrees_with_oracle(self):
        edges = chain_edges(40) + [(500 + i, 501 + i) for i in range(10)]
        answers = []
        for naive in (False, True):
            db = Database()
            db.facts("edge", edges)
            rows = magic_query(
                db, rules_of(PATH), Atom("path"), (Num(7), Var("Y")),
                oracles=Oracles(naive_fixpoint=naive),
            )
            answers.append({tuple(map(canon, row)) for row in rows})
        expected = oracle_rows(PATH, {"edge": edges}, [("path", 2)])[("path", 2)]
        answers.append({row for row in expected if row[0] == "7"})
        assert all(a == answers[0] for a in answers)
        assert len(answers[0]) == 33

    @given(
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_product_equals_oracle(self, edges):
        results = all_ways(edges, PATH, Atom("path"), 2)
        assert all(r == results[0] for r in results)


class TestCostCollapse:
    """The hash-join engine must scan dramatically less than nested loops.

    A nested-loop join charges ``rows in x |relation|`` per literal.  For
    seminaive ``path`` that is ``|edge|`` for the exit rule, plus, per
    round, ``|delta|`` for the delta literal and ``|delta| x |edge|`` for
    the edge literal; every path tuple is in exactly one delta, so the
    charge is ``|edge| + |path| x (1 + |edge|)``.
    """

    def _cost(self, edges):
        db = Database()
        db.facts("edge", edges)
        engine = NailEngine(db, rules_of(PATH))
        db.counters.reset()
        path = engine.materialize(Atom("path"), 2)
        nested = len(edges) + len(path) * (1 + len(edges))
        return db.counters.tuples_scanned, nested

    def test_random_graph_scans_drop_5x(self):
        # The acceptance workload: transitive closure of random_graph(40, 80).
        hashed, nested = self._cost(random_edges(40, 80, seed=7))
        assert hashed * 5 <= nested, (hashed, nested)

    def test_chain_scans_drop_5x(self):
        hashed, nested = self._cost(chain_edges(60))
        assert hashed * 5 <= nested, (hashed, nested)

    def test_probes_replace_scans(self):
        db = Database()
        db.facts("edge", chain_edges(30))
        engine = NailEngine(db, rules_of(PATH))
        db.counters.reset()
        engine.materialize(Atom("path"), 2)
        # The recursive join probes edge on Y instead of rescanning it.
        assert db.counters.index_lookups > 0
        assert db.counters.tuples_scanned < db.counters.index_lookups * 10

    def test_bound_query_uses_index_not_scan(self):
        # Satellite: NailEngine.query routes bound args through match_rows.
        db = Database()
        db.facts("edge", chain_edges(40))
        engine = NailEngine(db, rules_of(PATH))
        engine.materialize(Atom("path"), 2)  # warm the IDB cache
        db.counters.reset()
        rows = engine.query(Atom("path"), (Num(0), Var("Y")))
        assert len(rows) == 40
        # The query itself must not rescan the materialized relation per
        # answer; one adaptive-policy scan at most before an index kicks in.
        full = len(engine.materialize(Atom("path"), 2))
        assert db.counters.tuples_scanned <= full
