"""Differential tests for the id-space seminaive merge.

Under the columnar kernels a fixpoint round is ids in, ids out: flat
ground-named heads stay id columns, ``uniondiff_ids`` dedups them as int
tuples, only genuinely new rows are decoded and bulk-loaded, and the
delta carries its id columns into the next round.  The row engine
(``reference_system(row_engine=True)``) keeps the Term-row merge and is
the oracle: both must agree on the rows,
on the *order* rows were inserted in (it is the delta order of every
round), on every counter field, and on what a subscriber is told.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.reference import Oracles, reference_system
from repro.core.system import GlueNailSystem
from repro.nail.bodyeval import HeadBatch, derive_heads, eval_rule_body_batch
from repro.nail.rules import prepare_rules
from repro.lang.parser import parse_program
from repro.storage.stats import COUNTER_FIELDS
from repro.sub.queue import OP_INSERT
from repro.terms.term import Atom, Num, mk

LINEAR = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""

NONLINEAR = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & path(Y, Z).
"""

MUTUAL = """
even(X) :- zero(X).
even(Y) :- odd(X) & edge(X, Y).
odd(Y) :- even(X) & edge(X, Y).
"""

# Head shapes: a constant, a repeated variable (id-space), and a compound
# argument (falls back to per-binding instantiation and the Term-row merge)
# -- all three deriving into strata that also recurse.
HEAD_SHAPES = LINEAR + """
tagged(X, hub, Y) :- path(X, Y).
looped(X, X) :- path(X, X).
boxed(pair(X, Y)) :- path(X, Y).
both(X, Y) :- path(X, Y).
both(X, Y) :- boxed(pair(Y, X)).
"""

NEGATION = LINEAR + """
node(X) :- edge(X, _).
node(Y) :- edge(_, Y).
unreachable(X, Y) :- node(X) & node(Y) & !path(X, Y).
"""

PROGRAMS = {
    "linear": (LINEAR, [("path", 2)]),
    "nonlinear": (NONLINEAR, [("path", 2)]),
    "mutual": (MUTUAL, [("even", 1), ("odd", 1)]),
    "head_shapes": (
        HEAD_SHAPES,
        [("path", 2), ("tagged", 3), ("looped", 2), ("boxed", 1), ("both", 2)],
    ),
    "negation": (NEGATION, [("path", 2), ("node", 1), ("unreachable", 2)]),
}

edge_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=0, max_size=30
)


def all_counters(system):
    return dict(zip(COUNTER_FIELDS, system.counters.as_tuple()))


def insertion_order(system, preds):
    """Each predicate's rows in the order the fixpoint inserted them."""
    return {
        (name, arity): list(system.engine.materialize(mk(name), arity).rows())
        for name, arity in preds
    }


def run_modes(source, preds, steps):
    """Run ``steps`` (lists of ``(relation, rows)`` fact loads, a query of
    every predicate after each) under both modes; returns per mode the
    insertion orders after each step, the counters, and what a subscriber
    on the first predicate received."""
    out = {}
    for mode in ("row", "columnar"):
        system = reference_system(row_engine=mode == "row")
        system.load(source)
        notes = []
        system.subscribe(
            preds[0][0], preds[0][1],
            callback=lambda note: notes.append((note.op, tuple(note.rows))),
        )
        orders = []
        for facts in steps:
            for name, rows in facts:
                system.facts(name, rows)
            orders.append(insertion_order(system, preds))
        out[mode] = (orders, all_counters(system), notes)
    return out


def assert_modes_agree(out):
    row_orders, row_counters, row_notes = out["row"]
    col_orders, col_counters, col_notes = out["columnar"]
    assert col_orders == row_orders
    assert col_counters == row_counters
    assert col_notes == row_notes


@settings(deadline=None, max_examples=25)
@given(
    program=st.sampled_from(sorted(PROGRAMS)),
    edges=edge_lists,
    more=edge_lists,
    seeded=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=4),
)
def test_id_space_merge_matches_row_merge(program, edges, more, seeded):
    """Rows, insertion (= delta) order, every counter and every pushed
    delta agree, from scratch and across an incremental repair -- with EDB
    facts stored under an IDB name seeding the stratum both times."""
    source, preds = PROGRAMS[program]
    first = [("edge", sorted(set(edges))), ("zero", [(0,)])]
    second = [("edge", sorted(set(more)))]
    if preds[0][1] == 2:
        # EDB facts under the recursive predicate's own name.
        first.append((preds[0][0], seeded[:2]))
        second.append((preds[0][0], seeded[2:]))
    assert_modes_agree(run_modes(source, preds, [first, second]))


def test_subscriber_receives_exactly_the_new_rows():
    out = run_modes(
        LINEAR,
        [("path", 2)],
        [[("edge", [(0, 1), (1, 2)])], [("edge", [(2, 3)])], [("edge", [(0, 1)])]],
    )
    assert_modes_agree(out)
    orders, _counters, notes = out["columnar"]
    before = set(orders[0][("path", 2)])
    after = set(orders[1][("path", 2)])
    pushed = [set(rows) for op, rows in notes if op == OP_INSERT]
    # One delta for the repair (the no-op third load pushes nothing), and
    # it is exactly the rows the repair added.
    assert pushed[-1] == after - before
    assert len(after - before) == 3


def test_large_repair_stays_exact():
    """A repair whose delta is not tiny: the merge meets rows the relation
    already held (known to the Term store, not to this fixpoint's id set)
    and must neither re-insert nor re-announce them."""
    base = [(i, i + 1) for i in range(30)]
    shortcut = [(i, i + 2) for i in range(0, 28, 2)] + [(30, 31), (31, 0)]
    assert_modes_agree(
        run_modes(LINEAR, [("path", 2)], [[("edge", base)], [("edge", shortcut)]])
    )


def test_head_batch_covers_flat_ground_heads_only():
    """Which head shapes stay in id space (and therefore skip the
    per-derivation ``(name, row)`` regrouping) and which fall back."""
    system = GlueNailSystem()
    system.facts("edge", [(1, 2), (2, 3)])
    rules = prepare_rules(
        list(
            parse_program(
                """
                flat(X, k, X) :- edge(X, _).
                boxed(pair(X, Y)) :- edge(X, Y).
                fam(X)(Y) :- edge(X, Y).
                """
            ).items
        ),
        check_safety=False,
    )

    def heads(info, oracles=Oracles()):
        bindings = eval_rule_body_batch(info, system.db.get, oracles=oracles)
        return derive_heads(info, bindings)

    flat = heads(rules[0])
    assert isinstance(flat, HeadBatch)
    assert len(flat) == 2 and len(flat.cols) == 3
    assert flat.cols[0] is flat.cols[2]  # the repeated variable: one column
    assert list(flat) == [
        (Atom("flat"), (Num(1), Atom("k"), Num(1))),
        (Atom("flat"), (Num(2), Atom("k"), Num(2))),
    ]
    for info in rules[1:]:
        assert isinstance(heads(info), list)  # compound argument, HiLog name
    assert isinstance(heads(rules[0], Oracles(row_engine=True)), list)
