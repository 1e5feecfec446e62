"""Focused tests of repeat/until and unchanged() semantics corners."""

import pytest

from repro.core.query import rows_to_python
from tests.conftest import make_system


class TestUnchangedSemantics:
    def test_per_occurrence_state(self):
        # Two unchanged() occurrences over the same relation keep separate
        # histories ("since the last time that particular unchanged
        # statement was executed").
        system = make_system(
            """
            proc two_loops(:N)
            rels acc(V), counter(C);
              acc(1) := true.
              repeat
                acc(V) += acc(W) & V = W + 1 & V <= 3.
              until unchanged(acc(_));
              repeat
                acc(V) += acc(W) & V = W + 1 & V <= 5.
              until unchanged(acc(_));
              return(:N) := acc(V) & N = max(V).
            end
            """
        )
        rows = rows_to_python(system.call("two_loops"))
        assert rows == [(5,)]

    def test_per_invocation_state(self):
        # A second call starts with fresh unchanged history.
        system = make_system(
            """
            proc grow(X:N)
            rels acc(V);
              acc(X) := in(X).
              repeat
                acc(V) += acc(W) & V = W + 1 & V <= 10.
              until unchanged(acc(_));
              return(X:N) := in(X) & acc(V) & N = max(V).
            end
            """
        )
        assert rows_to_python(system.call("grow", [(1,)])) == [(1, 10)]
        assert rows_to_python(system.call("grow", [(7,)])) == [(7, 10)]

    def test_content_based_not_assignment_based(self):
        # A := that rewrites identical content does not count as a change.
        system = make_system(
            """
            proc stable(:X)
            rels mirror(V);
              repeat
                mirror(V) := source(V).
              until unchanged(mirror(_));
              return(:X) := mirror(X).
            end
            """
        )
        system.facts("source", [(1,), (2,)])
        assert sorted(rows_to_python(system.call("stable"))) == [(1,), (2,)]

    def test_watches_edb_relations_too(self):
        system = make_system(
            """
            proc drain_to_fixpoint(:X)
              repeat
                sink(X) += feed(X) & --feed(X).
              until unchanged(feed(_));
              return(:X) := sink(X).
            end
            """
        )
        system.facts("feed", [(1,), (2,), (3,)])
        rows = sorted(rows_to_python(system.call("drain_to_fixpoint")))
        assert rows == [(1,), (2,), (3,)]
        assert system.rows("feed", 1) == []


class TestUntilConditions:
    def test_plain_subgoal_condition(self):
        # Any conjunction works as a condition: true = non-empty.
        system = make_system(
            """
            proc fill(:N)
            rels acc(V);
              acc(0) := true.
              repeat
                acc(V) += acc(W) & V = W + 1.
              until acc(5);
              return(:N) := acc(V) & N = max(V).
            end
            """
        )
        assert rows_to_python(system.call("fill")) == [(5,)]

    def test_comparison_in_condition(self):
        system = make_system(
            """
            proc fill(:N)
            rels acc(V);
              acc(0) := true.
              repeat
                acc(V) += acc(W) & V = W + 1.
              until acc(V) & V >= 4;
              return(:N) := acc(V) & N = max(V).
            end
            """
        )
        assert rows_to_python(system.call("fill")) == [(4,)]

    def test_body_executes_before_first_check(self):
        # repeat/until is do-while: the body always runs at least once.
        system = make_system(
            """
            proc once(:X)
            rels mark(V);
              repeat
                mark(1) += true.
              until true;
              return(:X) := mark(X).
            end
            """
        )
        assert rows_to_python(system.call("once")) == [(1,)]

    def test_empty_condition_with_bound_pattern(self):
        system = make_system(
            """
            proc drain_reds(:X)
            rels taken(V);
              repeat
                taken(V) += item(red, V) & --item(red, V).
              until empty(item(red, _));
              return(:X) := taken(X).
            end
            """
        )
        system.facts("item", [("red", 1), ("red", 2), ("blue", 3)])
        assert sorted(rows_to_python(system.call("drain_reds"))) == [(1,), (2,)]
        assert len(system.rows("item", 2)) == 1  # blue survives
