"""Unit tests for the aggregate operators (paper Section 3.3)."""

import itertools
import math
from fractions import Fraction

import pytest

from repro.errors import GlueRuntimeError
from repro.glue.aggregates import AGGREGATES, apply_aggregate
from repro.terms.term import Atom, Num


def nums(*values):
    return [Num(v) for v in values]


class TestOperators:
    def test_all_eight_present(self):
        assert set(AGGREGATES) == {
            "min", "max", "mean", "sum", "product", "arbitrary", "std_dev", "count",
        }

    def test_min_max_numeric(self):
        assert apply_aggregate("min", nums(3, 1, 2)) == Num(1)
        assert apply_aggregate("max", nums(3, 1, 2)) == Num(3)

    def test_min_max_on_atoms(self):
        values = [Atom("b"), Atom("a"), Atom("c")]
        assert apply_aggregate("min", values) == Atom("a")
        assert apply_aggregate("max", values) == Atom("c")

    def test_sum_and_product(self):
        assert apply_aggregate("sum", nums(1, 2, 3)) == Num(6)
        assert apply_aggregate("product", nums(2, 3, 4)) == Num(24)

    def test_mean(self):
        assert apply_aggregate("mean", nums(1, 2, 3, 4)) == Num(2.5)

    def test_mean_preserves_duplicates(self):
        # Duplicates in the value list are meaningful (the paper's
        # temperature example): mean([10, 10, 40]) != mean({10, 40}).
        assert apply_aggregate("mean", nums(10, 10, 40)) == Num(20)

    def test_std_dev_population(self):
        result = apply_aggregate("std_dev", nums(2, 4, 4, 4, 5, 5, 7, 9))
        assert math.isclose(result.value, 2.0)

    def test_count(self):
        assert apply_aggregate("count", nums(5, 5, 5)) == Num(3)

    def test_count_non_numeric(self):
        assert apply_aggregate("count", [Atom("a"), Atom("b")]) == Num(2)

    def test_arbitrary_deterministic(self):
        assert apply_aggregate("arbitrary", nums(7, 8, 9)) == Num(7)

    def test_single_value(self):
        for op in ("min", "max", "mean", "sum", "product", "std_dev"):
            result = apply_aggregate(op, nums(5))
            assert result.value in (5, 0)  # std_dev of one value is 0

    def test_numeric_ops_reject_atoms(self):
        for op in ("mean", "sum", "product", "std_dev"):
            with pytest.raises(GlueRuntimeError):
                apply_aggregate(op, [Atom("x")])

    def test_sum_of_inf_and_minus_inf_is_an_error(self):
        group = nums(float("inf"), 1, float("-inf"))
        for op in ("sum", "mean", "std_dev"):
            with pytest.raises(GlueRuntimeError, match="NaN"):
                apply_aggregate(op, group)

    def test_infinite_sum_and_mean(self):
        assert apply_aggregate("sum", nums(float("inf"), 1)) == Num(float("inf"))
        assert apply_aggregate("mean", nums(float("-inf"), 1)) == Num(float("-inf"))
        with pytest.raises(GlueRuntimeError, match="NaN"):
            apply_aggregate("std_dev", nums(float("inf"), 1))

    def test_float_sum_does_not_depend_on_group_order(self):
        # A plain left-to-right sum gives 0.0 or 1.0 by order; the sum is
        # correctly rounded, so every order gives 1.0.
        for order in ((1e16, 1.0, -1e16), (1e16, -1e16, 1.0), (1.0, 1e16, -1e16)):
            assert apply_aggregate("sum", nums(*order)) == Num(1.0)
        assert apply_aggregate("mean", nums(-1e16, 1.0, 1e16)) == Num(1 / 3)

    def test_float_product_does_not_depend_on_group_order(self):
        # Left to right, these orders end one ulp apart; the product is
        # the exact one rounded once, so every order gives the same float.
        values = (5 / 3, -2 / 3, 4 / 3, 0.1)
        answers = {
            apply_aggregate("product", nums(*order)).value
            for order in itertools.permutations(values)
        }
        assert answers == {float(math.prod(map(Fraction, values)))}
        # An intermediate overflow does not decide the answer either.
        for order in itertools.permutations((1e200, 1e200, 1e-300)):
            assert apply_aggregate("product", nums(*order)) == Num(1e100)

    def test_product_with_an_infinite_factor_does_not_depend_on_group_order(self):
        # Left to right, inf * 1e-300 * 1e-300 is inf, but 1e-300 * 1e-300
        # underflows to 0.0 first and 0.0 * inf is NaN.
        for values, answer in (((math.inf, 1e-300, 1e-300), math.inf),
                               ((-math.inf, 1e-300, -1e-300), math.inf),
                               ((math.inf, -1e-300, 3), -math.inf)):
            for order in itertools.permutations(values):
                assert apply_aggregate("product", nums(*order)) == Num(answer)
        for values in ((math.inf, 0.0, 1e-300), (-math.inf, 0, 2)):
            for order in itertools.permutations(values):
                with pytest.raises(GlueRuntimeError, match="NaN"):
                    apply_aggregate("product", nums(*order))

    def test_integer_sum_is_exact(self):
        assert apply_aggregate("sum", nums(2**60, 1, -(2**60))).value == 1

    def test_empty_group_rejected(self):
        with pytest.raises(GlueRuntimeError):
            apply_aggregate("min", [])

    def test_unknown_operator(self):
        with pytest.raises(GlueRuntimeError):
            apply_aggregate("median", nums(1))
