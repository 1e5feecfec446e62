"""Cross-engine fuzzing: random programs, several evaluators, one answer.

Generates random stratified NAIL! programs and random Glue scripts
(``tests.differential``) plus random EDBs, and checks the system-level
invariants across evaluation routes:

* the product == the sqlite3 reference semantics (``tests.oracle``)
* the product's own baselines (``repro.baselines.reference``) == the oracle
* seminaive == naive (fixpoint identity)
* pipelined == materialized (Glue strategy identity)
* NAIL!->Glue generated code == native engine
* magic == full evaluation restricted to the query
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_engine, reference_system
from repro.core.system import GlueNailSystem
from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine, magic_query
from repro.nail.nail2glue import compile_rules_to_glue
from repro.storage.database import Database
from repro.terms.term import Atom, Num, Var
from tests.differential import (
    FAILED,
    MAX_ITERATIONS,
    agree,
    canon,
    glue_program,
    nail_program,
    product_rows,
    random_facts,
)

# ---------------------------------------------------------------- #
# random-program generators
# ---------------------------------------------------------------- #

edb_rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=15
)


def _picker(draw):
    return lambda lo, hi: draw(st.integers(lo, hi))


@st.composite
def datalog_programs(draw, hilog: bool = True):
    """A random stratified NAIL! program (see ``nail_program``)."""
    return nail_program(_picker(draw), hilog=hilog)


@st.composite
def glue_scripts(draw):
    """A random straight-line Glue script (see ``glue_program``)."""
    return glue_program(_picker(draw))


@st.composite
def edbs(draw):
    """A random EDB for both generators (see ``random_facts``)."""
    return random_facts(_picker(draw))


def idb_snapshot(engine: NailEngine):
    engine.materialize_all()
    out = {}
    for (name, arity) in sorted(engine.idb.keys(), key=str):
        out[str(name), arity] = engine.idb.get(name, arity).sorted_rows()
    return out


def load_edb(facts):
    db = Database()
    for name, rows in facts.items():
        db.facts(name, rows)
    return db


@given(datalog_programs(), edbs())
@settings(max_examples=25, deadline=None)
def test_seminaive_equals_naive_random_programs(source, facts):
    rules = list(parse_program(source).items)
    left = idb_snapshot(NailEngine(load_edb(facts), rules))
    right = idb_snapshot(reference_engine(load_edb(facts), rules, naive_fixpoint=True))
    assert left == right


@given(datalog_programs(hilog=False), edbs())
@settings(max_examples=15, deadline=None)
def test_nail2glue_equals_native_random_programs(source, facts):
    # Predicate-variable literals stay on the native engine (nail2glue
    # rejects them), so the generator leaves them out here.
    rules = list(parse_program(source).items)
    result = compile_rules_to_glue(rules)
    system = GlueNailSystem()
    system.load(result.source)
    for name, rows in facts.items():
        system.facts(name, rows)
    system.call(result.driver_proc)
    engine = NailEngine(load_edb(facts), rules)
    for name, arity in result.output_preds:
        generated = system.rows(name, arity)
        native = engine.materialize(Atom(name), arity).sorted_rows()
        assert generated == native, (name, arity)


@given(edb_rows, edb_rows, st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_magic_equals_full_random_edb(e0, e1, source_node):
    rules = list(parse_program(
        "p(X, Y) :- e0(X, Y).\np(X, Y) :- e1(X, Y).\n"
        "p(X, Z) :- p(X, Y) & e0(Y, Z)."
    ).items)
    db = load_edb({"e0": e0, "e1": e1})
    full = NailEngine(db, rules).query(Atom("p"), (Num(source_node), Var("Y")))
    magic = magic_query(db, rules, Atom("p"), (Num(source_node), Var("Y")))
    assert sorted(map(str, full)) == sorted(map(str, magic))


GLUE_BODY_TEMPLATE = """
out(X, Z) := e0(X, Y) & e1(Y, Z) & X <= Z.
agg(Y, N) := e0(X, Y) & group_by(Y) & N = count(X).
chain(A, D) := e0(A, B) & e0(B, C) & e0(C, D) & A != D.
"""


@given(edb_rows, edb_rows, st.booleans(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_strategies_and_optimizer_agree_random_edb(e0, e1, written_order, dedup):
    snapshots = []
    for materialized in (False, True):
        system = reference_system(
            written_order=written_order, materialized=materialized,
            keep_duplicates=not dedup,
        )
        system.load(GLUE_BODY_TEMPLATE)
        system.facts("e0", e0)
        system.facts("e1", e1)
        system.run_script()
        snapshots.append(
            tuple(
                tuple(system.rows(name, arity))
                for name, arity in (("out", 2), ("agg", 2), ("chain", 2))
            )
        )
    assert snapshots[0] == snapshots[1]


ALL_BASELINES = dict(row_engine=True, written_order=True, naive_fixpoint=True)


def _baselines(source, facts, preds):
    system = reference_system(max_loop_iterations=MAX_ITERATIONS, **ALL_BASELINES)
    return product_rows(source, facts, preds, system)


@given(datalog_programs(), edbs())
@settings(max_examples=80, deadline=None)
def test_product_equals_all_oracles_random_programs(source, facts):
    """A random NAIL! program: the product, and every baseline switched on
    at once (the row engine, written order and the naive fixpoint), give
    the sqlite3 oracle's rows; a magic query on the top predicate gives
    the oracle's rows with that first column."""
    expected = agree(source, facts)
    agree(source, facts, product=_baselines)
    if expected in (None, FAILED):
        return
    (name, arity), rows = max(expected.items())
    node = rows[0][0] if rows else "0"
    args = ", ".join([node] + ["Y"] * (arity - 1))
    system = GlueNailSystem()
    system.load(source)
    for rel, rel_rows in facts.items():
        system.facts(rel, rel_rows)
    magic = system.query_magic(f"{name}({args})?")
    assert sorted(tuple(map(canon, row)) for row in magic) == [
        row for row in rows if row[0] == node
    ]


@given(glue_scripts(), edbs(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_glue_scripts_equal_oracle(source, facts, materialized):
    """A random Glue script (``:=``, ``+=``, ``-=``, ``repeat ... until``,
    aggregates, HiLog names, a NAIL! view) gives the oracle's rows on the
    product VM and on the materialized baseline."""

    def product(source, facts, preds):
        system = reference_system(
            materialized=materialized, max_loop_iterations=MAX_ITERATIONS
        )
        return product_rows(source, facts, preds, system)

    agree(source, facts, product=product)


@given(edb_rows, edb_rows)
@settings(max_examples=25, deadline=None)
def test_vm_and_rule_evaluator_agree(e0, e1):
    """The positional Glue VM and the bindings-based NAIL! evaluator are
    independent implementations of the same body semantics: running the
    same conjunction through both must give the same tuples."""
    body = "a(X, Y) & b(Y, Z) & X != Z & W = X + Z"
    # Route 1: a Glue statement.
    glue = GlueNailSystem()
    glue.load(f"out(X, Z, W) := {body}.")
    glue.facts("a", e0)
    glue.facts("b", e1)
    glue.run_script()
    glue_rows = glue.rows("out", 3)
    # Route 2: a NAIL! rule.
    nail = GlueNailSystem()
    nail.load(f"out(X, Z, W) :- {body}.")
    nail.facts("a", e0)
    nail.facts("b", e1)
    nail_rows = nail.rows("out", 3)
    assert glue_rows == nail_rows


@given(edb_rows)
@settings(max_examples=20, deadline=None)
def test_vm_and_rule_evaluator_agree_on_aggregates(rows):
    body = "a(K, V) & group_by(K) & S = sum(V)"
    glue = GlueNailSystem()
    glue.load(f"out(K, S) := {body}.")
    glue.facts("a", rows)
    glue.run_script()
    nail = GlueNailSystem()
    nail.load(f"out(K, S) :- {body}.")
    nail.facts("a", rows)
    assert glue.rows("out", 2) == nail.rows("out", 2)
