"""One join vocabulary: both engines name the same decision the same way.

Each body runs once as a NAIL! rule (``d(D)`` supplies the bound
variable) and once as a Glue statement ``return(...) := in(D) & body``.
The rows must be equal, every ``join`` strategy label must come from
:data:`repro.opt.literal.JOIN_STRATEGIES`, and the labels the two engines give
the literal under test must match -- except for the two choices only the
Glue VM makes (constant-only keys probe per row; a fully bound positive
literal is a ``member`` test), which are pinned here as documented.
"""

import pytest

from repro.core.query import rows_to_python
from repro.lang.parser import parse_term
from repro.obs.tracer import CollectingSink
from repro.opt.literal import JOIN_STRATEGIES
from tests.conftest import make_system

FACTS = {
    "d": [(1,), (2,), (6,)],
    "e": [(1, 2), (2, 2), (2, 3), (3, 3), (3, 1), (4, 5), (5, 4), (1, 1)],
    "f": [(1, "g(2)"), (2, "g(1)"), (3, "g(3)"), (2, "h(2)"), (4, "g(4)")],
}

# (body, head variables after D, NAIL! label of the e/f literal, VM label)
CASES = [
    # positive, flat
    ("e(D, X)", "X", "probe", "probe"),
    ("e(X, Y)", "X, Y", "broadcast", "broadcast"),
    ("e(X, X)", "X", "broadcast", "broadcast"),
    ("e(D, D)", "", "probe", "member"),  # VM-only: fully bound positive
    ("e(3, X)", "X", "broadcast", "probe"),  # VM-only: constant-only key
    # positive, compound
    ("f(D, g(X))", "X", "probe+match", "probe+match"),
    ("f(X, g(D))", "X", "scan+match", "scan+match"),
    ("f(X, g(Y))", "X, Y", "broadcast", "broadcast"),
    # negated, flat
    ("!e(D, _)", "", "anti-probe", "anti-probe"),
    ("!e(D, D)", "", "anti-member", "anti-member"),
    ("!e(_, _)", "", "anti-static", "anti-static"),
    ("!e(6, _)", "", "anti-static", "anti-probe"),  # VM-only: constant-only key
    # negated, compound
    ("!f(D, g(_))", "", "anti-probe+match", "anti-probe+match"),
    ("!f(_, g(D))", "", "anti-scan+match", "anti-scan+match"),
    ("!f(_, g(_))", "", "anti-static", "anti-static"),
]


def traced(system, run):
    sink = CollectingSink()
    system.tracer.add_sink(sink)
    try:
        rows = run()
    finally:
        system.tracer.remove_sink(sink)
    joins = [e for e in sink.events if e.kind == "join"]
    return rows, joins


def labels(joins, pred):
    return {e.attrs["strategy"] for e in joins if e.name.startswith(f"{pred}/")}


def loaded(source):
    system = make_system(source)
    for name, rows in FACTS.items():
        system.facts(
            name,
            [tuple(parse_term(v) if isinstance(v, str) else v for v in row) for row in rows],
        )
    return system


@pytest.mark.parametrize(
    "body, head, nail_label, vm_label", CASES, ids=[case[0] for case in CASES]
)
def test_both_engines_name_the_strategy_alike(body, head, nail_label, vm_label):
    out = f"D, {head}" if head else "D"
    pred = body.lstrip("!")[0]
    nail = loaded(f"out({out}) :- d(D) & {body}.")
    nail_rows, nail_joins = traced(nail, lambda: nail.rows("out", len(out.split(","))))
    glue = loaded(
        f"proc q(D:{head})\n  return(D:{head}) := in(D) & {body}.\nend\n"
    )
    glue_rows, glue_joins = traced(glue, lambda: list(glue.call("q", FACTS["d"])))
    assert sorted(rows_to_python(nail_rows)) == sorted(rows_to_python(glue_rows))
    for joins in (nail_joins, glue_joins):
        assert joins
        assert {e.attrs["strategy"] for e in joins} <= JOIN_STRATEGIES
    assert labels(nail_joins, pred) == {nail_label}
    assert labels(glue_joins, pred) == {vm_label}


def test_negated_fully_bound_literal_after_a_binder():
    """``!e(Y, X)`` with both variables bound: one name, ``anti-member``."""
    body = "e(D, X) & !e(X, D)"
    nail = loaded(f"out(D, X) :- d(D) & {body}.")
    nail_rows, nail_joins = traced(nail, lambda: nail.rows("out", 2))
    glue = loaded(f"proc q(D:X)\n  return(D:X) := in(D) & {body}.\nend\n")
    glue_rows, glue_joins = traced(glue, lambda: list(glue.call("q", FACTS["d"])))
    assert sorted(rows_to_python(nail_rows)) == sorted(rows_to_python(glue_rows))
    assert labels(nail_joins, "e") == labels(glue_joins, "e") == {"probe", "anti-member"}
