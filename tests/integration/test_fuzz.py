"""Cross-engine fuzzing: random programs, four evaluators, one answer.

Generates small random stratified Datalog programs and random EDBs, then
checks the system-level invariants across evaluation routes:

* seminaive == naive (fixpoint identity)
* pipelined == materialized (Glue strategy identity)
* NAIL!->Glue generated code == native engine
* magic == full evaluation restricted to the query
* the product == every baseline at once (``repro.baselines.reference``)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import reference_engine, reference_system
from repro.core.query import rows_to_python
from repro.core.system import GlueNailSystem
from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine, magic_query
from repro.nail.nail2glue import compile_rules_to_glue
from repro.storage.database import Database
from repro.terms.term import Atom, Num, Var

# ---------------------------------------------------------------- #
# random-program generator
# ---------------------------------------------------------------- #

edb_rows = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=15
)


@st.composite
def datalog_programs(draw):
    """A small stratified program over EDB preds e0/2, e1/2.

    Shape: one recursive predicate (p), one derived filter predicate (q),
    optionally a negation stratum (r), and optional rules for the other
    rows of the join-strategy menu: a constant-only key (s), a repeated
    fresh variable (t), a fully bound positive literal (u) and a
    right-hand ``=`` binder (v).
    """
    lines = ["p(X, Y) :- e0(X, Y)."]
    if draw(st.booleans()):
        lines.append("p(X, Y) :- e1(X, Y).")
    recursive = draw(st.sampled_from([
        "p(X, Z) :- p(X, Y) & e0(Y, Z).",
        "p(X, Z) :- e0(X, Y) & p(Y, Z).",
        "p(X, Z) :- p(X, Y) & p(Y, Z).",
    ]))
    lines.append(recursive)
    if draw(st.booleans()):
        lines.append("q(X) :- p(X, Y) & X < Y.")
    if draw(st.booleans()):
        lines.append("r(X) :- e1(X, _) & !p(X, X).")
    if draw(st.booleans()):
        lines.append("s(Y) :- e0(3, Y).")
    if draw(st.booleans()):
        lines.append("t(X) :- e0(X, X).")
    if draw(st.booleans()):
        lines.append("u(X, Y) :- p(X, Y) & e1(X, Y).")
    if draw(st.booleans()):
        lines.append("v(X, Y) :- e0(X, _) & 2 = Y.")
    return "\n".join(lines)


def load_db(e0, e1):
    db = Database()
    db.facts("e0", e0)
    db.facts("e1", e1)
    return db


def idb_snapshot(engine: NailEngine):
    engine.materialize_all()
    out = {}
    for (name, arity) in sorted(engine.idb.keys(), key=str):
        out[str(name), arity] = engine.idb.get(name, arity).sorted_rows()
    return out


@given(datalog_programs(), edb_rows, edb_rows)
@settings(max_examples=25, deadline=None)
def test_seminaive_equals_naive_random_programs(source, e0, e1):
    rules = list(parse_program(source).items)
    left = idb_snapshot(NailEngine(load_db(e0, e1), rules))
    right = idb_snapshot(reference_engine(load_db(e0, e1), rules, naive_fixpoint=True))
    assert left == right


@given(datalog_programs(), edb_rows, edb_rows)
@settings(max_examples=15, deadline=None)
def test_nail2glue_equals_native_random_programs(source, e0, e1):
    rules = list(parse_program(source).items)
    result = compile_rules_to_glue(rules)
    system = GlueNailSystem()
    system.load(result.source)
    system.facts("e0", e0)
    system.facts("e1", e1)
    system.call(result.driver_proc)
    engine = NailEngine(load_db(e0, e1), rules)
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
    db = load_db(e0, e1)
    full = NailEngine(db, rules).query(Atom("p"), (Num(source_node), Var("Y")))
    magic, _ = magic_query(db, rules, Atom("p"), (Num(source_node), Var("Y")))
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
    for strategy in ("pipelined", "materialized"):
        system = reference_system(
            written_order=written_order, strategy=strategy, dedup_on_break=dedup
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


ALL_ORACLES = dict(
    nested_joins=True, row_engine=True, written_order=True, naive_fixpoint=True
)
ALL_PREDS = (
    ("p", 2), ("q", 1), ("r", 1), ("s", 1), ("t", 1), ("u", 2), ("v", 2),
    ("out", 2), ("agg", 2), ("chain", 2),
)


@given(datalog_programs(), edb_rows, edb_rows, st.integers(0, 5))
@settings(max_examples=25, deadline=None)
def test_product_equals_all_oracles_random_programs(source, e0, e1, node):
    """The product against every baseline switched on at once -- nested
    joins, the row engine, written order and the naive fixpoint -- through
    the facade: a random NAIL! program plus the Glue statements."""
    results = []
    for system in (GlueNailSystem(), reference_system(**ALL_ORACLES)):
        system.load(source + GLUE_BODY_TEMPLATE)
        system.facts("e0", e0)
        system.facts("e1", e1)
        system.run_script()
        rows = [tuple(system.rows(name, arity)) for name, arity in ALL_PREDS]
        rows.append(sorted(map(str, system.query_magic(f"p({node}, Y)?"))))
        results.append(rows)
    assert results[0] == results[1]


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
