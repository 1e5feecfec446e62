"""Seminaive vs. naive evaluation and the uniondiff integration."""

import gc
import random
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_engine
from repro.col.kernels import ColumnarContext
from repro.core.system import GlueNailSystem
from repro.errors import GlueNailError
from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine
from repro.storage.database import Database
from repro.terms.term import Atom, Var, mk
from tests.differential import (
    FAILED,
    MAX_ITERATIONS,
    agree,
    canon,
    nail_program,
    random_facts,
)

PATH = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""

SAME_GEN = """
sg(X, X) :- person(X).
sg(X, Y) :- parent(X, XP) & sg(XP, YP) & parent(Y, YP).
"""


def edge_db(edges):
    db = Database()
    db.facts("edge", edges)
    return db


def rules_of(text):
    return list(parse_program(text).items)


class TestCorrectness:
    def test_chain(self):
        db = edge_db([(i, i + 1) for i in range(20)])
        engine = NailEngine(db, rules_of(PATH))
        assert len(engine.materialize(Atom("path"), 2)) == 20 * 21 // 2

    def test_cycle(self):
        db = edge_db([(0, 1), (1, 2), (2, 0)])
        engine = NailEngine(db, rules_of(PATH))
        assert len(engine.materialize(Atom("path"), 2)) == 9

    def test_diamond_no_duplicates(self):
        db = edge_db([(0, 1), (0, 2), (1, 3), (2, 3)])
        engine = NailEngine(db, rules_of(PATH))
        rows = engine.materialize(Atom("path"), 2)
        assert len(rows) == len(set(rows.rows()))
        assert len(rows) == 5

    def test_nonlinear_recursion(self):
        # sg has two recursive positions via parent joins.
        db = Database()
        db.facts("person", [("a",), ("b",), ("c",), ("d",)])
        db.facts("parent", [("c", "a"), ("d", "b"), ("a", "r"), ("b", "r")])
        db.facts("person", [("r",)])
        engine = NailEngine(db, rules_of(SAME_GEN))
        rows = engine.materialize(Atom("sg"), 2)
        values = {(r[0].name, r[1].name) for r in rows.rows()}
        assert ("a", "b") in values  # same generation via r
        assert ("c", "d") in values  # same generation via a/b

    def test_mutual_recursion(self):
        db = Database()
        db.facts("zero", [(0,)])
        db.facts("succ", [(i, i + 1) for i in range(10)])
        rules = rules_of(
            """
            even(X) :- zero(X).
            even(Y) :- odd(X) & succ(X, Y).
            odd(Y) :- even(X) & succ(X, Y).
            """
        )
        engine = NailEngine(db, rules)
        evens = sorted(r[0].value for r in engine.materialize(Atom("even"), 1).rows())
        odds = sorted(r[0].value for r in engine.materialize(Atom("odd"), 1).rows())
        assert evens == [0, 2, 4, 6, 8, 10]
        assert odds == [1, 3, 5, 7, 9]


class TestCosts:
    def test_seminaive_cheaper_than_naive(self):
        db = edge_db([(i, i + 1) for i in range(40)])
        db.counters.reset()
        NailEngine(db, rules_of(PATH)).materialize(Atom("path"), 2)
        semi = db.counters.tuples_scanned
        db.counters.reset()
        reference_engine(db, rules_of(PATH), naive_fixpoint=True).materialize(Atom("path"), 2)
        naive = db.counters.tuples_scanned
        assert semi < naive

    def test_gap_grows_with_depth(self):
        ratios = []
        for n in (10, 30):
            db = edge_db([(i, i + 1) for i in range(n)])
            db.counters.reset()
            NailEngine(db, rules_of(PATH)).materialize(Atom("path"), 2)
            semi = db.counters.tuples_scanned
            db.counters.reset()
            reference_engine(db, rules_of(PATH), naive_fixpoint=True).materialize(Atom("path"), 2)
            ratios.append(db.counters.tuples_scanned / max(semi, 1))
        assert ratios[1] > ratios[0]

    def test_rounds_counted(self):
        db = edge_db([(i, i + 1) for i in range(8)])
        engine = NailEngine(db, rules_of(PATH))
        engine.materialize(Atom("path"), 2)
        # A chain of 8 edges needs ~8 seminaive rounds (+ exhaustion check).
        assert 8 <= engine.rounds_run <= 10


@given(
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30)
)
@settings(max_examples=30, deadline=None)
def test_property_seminaive_equals_naive(edges):
    db = edge_db(edges)
    semi = NailEngine(db, rules_of(PATH))
    naive = reference_engine(db, rules_of(PATH), naive_fixpoint=True)
    assert (
        semi.materialize(Atom("path"), 2).sorted_rows()
        == naive.materialize(Atom("path"), 2).sorted_rows()
    )


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
    st.lists(st.integers(0, 5), min_size=1, max_size=4),
)
@settings(max_examples=25, deadline=None)
def test_property_stratified_negation_agrees(edges, starts):
    source = """
    reach(X) :- start(X).
    reach(Y) :- reach(X) & edge(X, Y).
    unreach(X) :- node(X) & !reach(X).
    """
    db = Database()
    db.facts("node", [(i,) for i in range(6)])
    db.facts("edge", edges)
    db.facts("start", [(s,) for s in starts])
    semi = NailEngine(db, rules_of(source))
    naive = reference_engine(db, rules_of(source), naive_fixpoint=True)
    left = semi.materialize(Atom("unreach"), 1).sorted_rows()
    right = naive.materialize(Atom("unreach"), 1).sorted_rows()
    assert left == right
    # And both agree with a direct reachability computation.
    reach = set()
    frontier = set(starts)
    while frontier:
        reach |= frontier
        frontier = {b for a, b in edges if a in frontier} - reach
    expected = sorted(set(range(6)) - reach)
    assert [r[0].value for r in left] == expected


# ---------------------------------------------------------------------- #
# the id-space merge (columnar) against the row engine's Term-row merge
# ---------------------------------------------------------------------- #

NONLINEAR = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & path(Y, Z).
"""

MUTUAL = """
even(X) :- zero(X).
even(Y) :- odd(X) & edge(X, Y).
odd(Y) :- even(X) & edge(X, Y).
"""


def _fixpoint(source, edges, row_engine):
    db = edge_db(edges)
    db.facts("zero", [(0,)])
    engine = reference_engine(db, rules_of(source), row_engine=row_engine)
    idb = engine.materialize_all()
    rows = {key: list(relation.rows()) for key, relation in idb.items()}
    return rows, db.counters.as_tuple(), engine.rounds_run


@given(
    st.sampled_from([PATH, NONLINEAR, MUTUAL, SAME_GEN.replace("parent", "edge")
                     .replace("person(X)", "edge(X, _)")]),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
)
@settings(max_examples=30, deadline=None)
def test_property_id_space_merge_equals_row_merge(source, edges):
    """Same rows in the same insertion order (hence the same deltas, round
    by round), the same number of rounds and every counter field equal."""
    assert _fixpoint(source, edges, False) == _fixpoint(source, edges, True)


class TestIdSpaceRounds:
    def test_deltas_are_never_re_interned(self, monkeypatch):
        """A columnar fixpoint hands each round's delta to the next as id
        columns: only stored relations are ever encoded."""
        from repro.col.atoms import AtomTable

        encoded = []
        original = AtomTable.intern_column

        def spy(self, rows, col):
            encoded.append(len(rows))
            return original(self, rows, col)

        monkeypatch.setattr(AtomTable, "intern_column", spy)
        db = edge_db([(i, i + 1) for i in range(12)])
        engine = NailEngine(db, rules_of(PATH))
        assert len(engine.materialize(Atom("path"), 2)) == 12 * 13 // 2
        assert engine.rounds_run > 10
        # Round 0 scans two stored relations (edge/2, then path/2 as rule 1
        # left it), two columns each; the ten delta rounds encode nothing.
        assert encoded == [12, 12, 12, 12]

    def test_fixpoint_leaves_nothing_in_the_shared_context(self):
        db = edge_db([(i, i + 1) for i in range(6)])
        engine = NailEngine(db, rules_of(PATH))
        engine.materialize(Atom("path"), 2)
        path = engine.idb.get(Atom("path"), 2)
        # The fixpoint's tables live on the relations they encode; the
        # shared context holds only the atom table and its counts.
        assert path.kernel_tables
        assert db.get(Atom("edge"), 2).kernel_tables
        assert ColumnarContext.__slots__ == ("atoms", "hits", "misses", "extends")
        dead = weakref.ref(path)
        del path
        gc.disable()
        try:
            engine.close()
            assert dead() is None  # freed by reference counting
        finally:
            gc.enable()
        assert len(engine.idb) == 0


class TestDependencyClosure:
    SOURCE = PATH + """
    cited(Y) :- edge(_, Y).
    root(X) :- edge(X, _) & !cited(X).
    """

    def engine(self):
        db = edge_db([(0, 1), (1, 2), (2, 3)])
        return db, NailEngine(db, rules_of(self.SOURCE))

    def computed(self, engine):
        return {
            next(iter(stratum.skeletons))[0]
            for stratum in engine.strata
            if engine._stratum_computed[stratum.index]
        }

    def test_query_materializes_only_what_it_depends_on(self):
        db, engine = self.engine()
        engine.query(Atom("path"), (Var("X"), Var("Y")))
        assert self.computed(engine) == {"path"}
        assert engine.idb.get(Atom("cited"), 1) is None
        assert db.counters.inserts == 3 + 6  # the EDB load plus path/2
        engine.materialize(Atom("root"), 1)
        assert self.computed(engine) == {"path", "cited", "root"}

    def test_cache_hit_ignores_unrelated_pending_strata(self):
        db, engine = self.engine()
        engine.materialize(Atom("path"), 2)
        hits = db.counters.idb_cache_hits
        engine.materialize(Atom("path"), 2)  # cited/root still uncomputed
        assert db.counters.idb_cache_hits == hits + 1

    def test_unsafe_unrelated_stratum_does_not_block(self):
        db = edge_db([(0, 1)])
        engine = NailEngine(
            db, rules_of("a_open(X, Y) :- edge(X, _)." + PATH), check_safety=False
        )
        assert not engine.can_materialize(Atom("a_open"), 2)
        assert engine.can_materialize(Atom("path"), 2)
        assert len(engine.materialize(Atom("path"), 2)) == 1

    def test_predicate_variable_strata_need_everything_below(self):
        db = edge_db([(0, 1)])
        db.facts("names", [("edge",)])
        engine = NailEngine(
            db, rules_of(PATH + "any(X) :- names(R) & R(X, _)."), check_safety=False
        )
        index = engine._stratum_of[("any", (), 1)]
        assert engine._needs[index] == tuple(range(index + 1))
        engine.materialize_all()
        assert all(engine._stratum_computed)


def test_repair_across_two_commits_equals_oracle():
    """A seeded sweep of random programs (``tests.differential``): each
    EDB arrives in two commits, with every predicate materialized between
    them, so the second commit repairs the cached strata (the seminaive
    loop run from a seed) or rebuilds them.  The rows after it are the
    sqlite3 oracle's, and the sweep repairs at least once."""
    repairs = 0

    def two_commits(source, facts, preds):
        nonlocal repairs
        system = GlueNailSystem(max_loop_iterations=MAX_ITERATIONS)
        try:
            system.load(source)
            for half in (slice(0, None, 2), slice(1, None, 2)):
                system.begin()
                for name, rows in facts.items():
                    system.facts(name, [tuple(map(mk, row)) for row in rows[half]])
                system.commit()
                got = {
                    (name, arity): sorted(
                        tuple(map(canon, row)) for row in system.rows(name, arity)
                    )
                    for name, arity in reversed(preds)
                }
        except GlueNailError:
            return FAILED
        repairs += system.counters.idb_delta_repairs
        return got

    for seed in range(60):
        rng = random.Random(seed)
        source = nail_program(rng.randint)
        agree(source, random_facts(rng.randint), product=two_commits)
    assert repairs > 0
