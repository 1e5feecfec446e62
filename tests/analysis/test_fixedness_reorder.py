"""Tests for fixedness analysis, and that reordering never changes results.

The ordering rules themselves are tested against ``repro.opt.passes.optimize`` in
tests/opt/test_ordering.py."""

from repro.analysis.fixedness import is_aggregating_subgoal, is_fixed_subgoal
from repro.lang.parser import parse_statement


def body_of(text):
    return parse_statement(text).body


class TestFixedness:
    def test_update_is_fixed(self):
        body = body_of("p(X) := q(X) & ++r(X).")
        assert is_fixed_subgoal(body[1])

    def test_group_by_is_fixed(self):
        body = body_of("p(X) := q(X) & group_by(X) & M = max(X).")
        assert is_fixed_subgoal(body[1])

    def test_aggregate_comparison_is_fixed(self):
        body = body_of("p(M) := q(T) & M = max(T).")
        assert is_fixed_subgoal(body[1])
        assert is_aggregating_subgoal(body[1])

    def test_plain_scan_not_fixed(self):
        body = body_of("p(X) := q(X) & r(X).")
        assert not is_fixed_subgoal(body[0])

    def test_plain_comparison_not_fixed(self):
        body = body_of("p(X) := q(X, Y) & X < Y.")
        assert not is_fixed_subgoal(body[1])
        assert not is_aggregating_subgoal(body[1])

    def test_fixed_call_resolution(self):
        body = body_of("p(X) := q(X) & io_thing(X).")

        def call_fixedness(subgoal):
            if subgoal.pred.name == "io_thing":
                return True
            return None

        assert is_fixed_subgoal(body[1], call_fixedness)
        assert not is_fixed_subgoal(body[0], call_fixedness)


class TestReorderProperties:
    """Hypothesis: reordering never changes results, only order/cost."""

    def test_property_reorder_preserves_join_results(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.core.query import rows_to_python
        from tests.conftest import make_system

        @given(
            st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=15),
            st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=15),
            st.integers(0, 4),
        )
        @settings(max_examples=25, deadline=None)
        def check(a_rows, b_rows, limit):
            source = f"out(X, Z) := a(X, Y) & b(Y, Z) & X != Z & Z <= {limit} & !skip(X)."
            results = []
            for written_order in (False, True):
                system = make_system(source, written_order=written_order)
                system.facts("a", a_rows)
                system.facts("b", b_rows)
                system.facts("skip", [(0,)])
                system.run_script()
                results.append(rows_to_python(system.rows("out", 2)))
            assert results[0] == results[1]

        check()
