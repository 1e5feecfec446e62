"""Tests for body disjunction ``{ c1 | c2 }`` (the footnote-5 extension)."""

import pytest

from repro.core.query import rows_to_python
from repro.errors import CompileError
from tests.conftest import make_system


def run(source, facts=None, **kwargs):
    system = make_system(source, **kwargs)
    for name, rows in (facts or {}).items():
        system.facts(name, rows)
    system.compile()
    system.run_script()
    return system


class TestUnionSemantics:
    def test_basic_union(self):
        system = run(
            "contact(P, V) := person(P) & { email(P, V) | phone(P, V) }.",
            facts={
                "person": [("ann",), ("bob",)],
                "email": [("ann", "a@x")],
                "phone": [("ann", "555"), ("bob", "666")],
            },
        )
        assert sorted(rows_to_python(system.rows("contact", 2))) == [
            ("ann", "555"), ("ann", "a@x"), ("bob", "666"),
        ]

    def test_overlapping_alternatives_dedup(self):
        system = run(
            "out(X) := seed(X) & { a(X) | b(X) }.",
            facts={"seed": [(1,), (2,)], "a": [(1,)], "b": [(1,), (2,)]},
        )
        assert rows_to_python(system.rows("out", 1)) == [(1,), (2,)]

    def test_alternatives_with_filters(self):
        system = run(
            "sized(X, C) := n(X) & { X < 5 & C = small(X) | X >= 5 & C = big(X) }.",
            facts={"n": [(1,), (9,)]},
        )
        rows = sorted(rows_to_python(system.rows("sized", 2)))
        assert rows == [(1, ("small", 1)), (9, ("big", 9))]

    def test_union_then_join(self):
        system = run(
            "out(X, Y) := { a(X) | b(X) } & follow(X, Y).",
            facts={"a": [(1,)], "b": [(2,)], "follow": [(1, 10), (2, 20), (3, 30)]},
        )
        assert sorted(rows_to_python(system.rows("out", 2))) == [
            (1, 10), (2, 20),
        ]

    def test_three_alternatives(self):
        system = run(
            "out(X) := { a(X) | b(X) | c(X) }.",
            facts={"a": [(1,)], "b": [(2,)], "c": [(3,)]},
        )
        assert len(system.rows("out", 1)) == 3

    def test_empty_alternative_contributes_nothing(self):
        system = run(
            "out(X) := { a(X) | never(X) }.",
            facts={"a": [(1,)]},
        )
        assert rows_to_python(system.rows("out", 1)) == [(1,)]

    def test_strategies_agree(self):
        source = "out(X, V) := seed(X) & { a(X, V) | b(X, V) & V != 0 }."
        facts = {
            "seed": [(i,) for i in range(5)],
            "a": [(i, i * 2) for i in range(5)],
            "b": [(i, i % 2) for i in range(5)],
        }
        left = run(source, facts)
        right = run(source, facts, materialized=True)
        assert left.rows("out", 2) == right.rows("out", 2)

    def test_nested_union(self):
        system = run(
            "out(X) := { a(X) | { b(X) | c(X) } }.",
            facts={"a": [(1,)], "b": [(2,)], "c": [(3,)]},
        )
        assert len(system.rows("out", 1)) == 3

    def test_negation_inside_alternative(self):
        system = run(
            "out(X) := n(X) & { even_marker(X) | !even_marker(X) & X > 5 }.",
            facts={"n": [(2,), (3,), (7,)], "even_marker": [(2,)]},
        )
        assert sorted(rows_to_python(system.rows("out", 1))) == [(2,), (7,)]



def _costs(source, arity, facts, **kwargs):
    """The rows of ``out`` and the counters, counted from a compiled start."""
    system = make_system(source, **kwargs)
    for name, rows in facts.items():
        system.facts(name, rows)
    system.compile()
    system.reset_counters()
    system.run_script()
    return sorted(rows_to_python(system.rows("out", arity))), system.counters.snapshot()


class TestUnionCosts:
    """A disjunction's alternatives are supplementary relations like any
    other: their overlap is charged where it is removed, and the VM's
    baselines apply inside each alternative too."""

    OVERLAP = "out(X) := a(X) & { b(X) | c(X) }."
    FIVE = {name: [(i,) for i in range(5)] for name in ("a", "b", "c")}

    def test_overlap_is_charged_as_dedup(self):
        rows, counters = _costs(self.OVERLAP, 1, self.FIVE)
        assert rows == [(i,) for i in range(5)]
        # Both alternatives return all five rows; the union removes five.
        assert counters["dedup_removed"] == 5
        assert counters["materialized_tuples"] == 5 + 5

    def test_keep_duplicates_keeps_the_overlap(self):
        rows, counters = _costs(self.OVERLAP, 1, self.FIVE, keep_duplicates=True)
        assert rows == [(i,) for i in range(5)]
        # The ten union rows reach the statement's final relation, which
        # removes the overlap there.
        assert counters["materialized_tuples"] == 5 + 10
        assert counters["dedup_removed"] == 5

    def test_materialized_baseline_stores_every_alternative_step(self):
        source = "out(X, Y) := a(X, Y) & { b(Y, Z) & c(Z, _) | c(X, Z) }."
        facts = {
            "a": [(1, 2), (3, 4)],
            "b": [(2, 3), (4, 6)],
            "c": [(3, 4), (1, 5), (6, 7)],
        }
        rows, counters = _costs(source, 2, facts, materialized=True)
        assert rows == _costs(source, 2, facts)[0] == [(1, 2), (3, 4)]
        # a and the union at the top, two steps in the first alternative,
        # one in the second.
        assert counters["materializations"] == 5
        assert counters["pipeline_breaks"] == 0

class TestUnionErrors:
    def test_alternatives_must_bind_same_vars(self):
        with pytest.raises(CompileError, match="same"):
            run("out(X, Y) := seed(X) & { a(X, Y) | b(X) }.", facts={"seed": []})

    def test_no_updates_inside(self):
        with pytest.raises(CompileError, match="disjunction"):
            run("out(X) := seed(X) & { ++log(X) | a(X) }.", facts={"seed": []})

    def test_no_aggregates_inside(self):
        with pytest.raises(CompileError):
            run("out(X, M) := seed(X) & { M = max(X) | a(X, M) }.", facts={"seed": []})

    def test_rejected_in_nail_rules(self):
        from repro.errors import UnsafeRuleError

        system = make_system("p(X) :- { a(X) | b(X) }.")
        with pytest.raises(UnsafeRuleError):
            system.rows("p", 1)
