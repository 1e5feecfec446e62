"""Aggregate operators (paper Section 3.3).

    "The aggregate operators (aggregators) available in Glue are: min, max,
    mean, sum, product, arbitrary, std_dev (standard deviation), and
    count.  These operators take a single bound term as an argument, and
    return a single value."

Aggregators range over the tuples of the preceding supplementary relation
-- *not* over the projection onto the argument term, which would delete
meaningful duplicates (the paper's temperature-reading example).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

from repro.errors import GlueRuntimeError
from repro.terms.term import Num, Term, sort_key


def _numeric_values(op: str, values: Sequence[Term]) -> List[float]:
    out = []
    for value in values:
        if not isinstance(value, Num):
            raise GlueRuntimeError(f"{op} needs numeric values, got {value}")
        out.append(value.value)
    return out


def _number(op: str, value) -> Num:
    """A numeric aggregate's result; NaN is a runtime error, not a value."""
    if value != value:
        raise GlueRuntimeError(f"{op} has no numeric value (NaN)")
    return Num(value)


def _sum(op: str, nums: List[float]):
    """Exact over integers; over floats correctly rounded (``math.fsum``),
    so the answer does not depend on the order the group arrives in."""
    if all(isinstance(n, int) for n in nums):
        return sum(nums)
    try:
        return math.fsum(nums)
    except ValueError:  # inf and -inf in one group
        raise GlueRuntimeError(f"{op} has no numeric value (NaN)") from None
    except OverflowError:  # finite values whose sum leaves the float range
        return sum(nums)


def _product(nums: List[float]):
    """Exact over integers; over finite floats the exact product rounded
    once (``int / int`` rounds correctly), so, as for :func:`_sum`, the
    answer does not depend on the order the group arrives in."""
    if all(isinstance(n, int) for n in nums) or not all(
        isinstance(n, int) or math.isfinite(n) for n in nums
    ):
        return math.prod(nums)
    num = den = 1
    for n in nums:
        top, bottom = n.as_integer_ratio()
        num *= top
        den *= bottom
    try:
        return num / den
    except OverflowError:  # finite values whose product leaves the float range
        return math.inf if num > 0 else -math.inf


def _agg_min(values: Sequence[Term]) -> Term:
    return min(values, key=sort_key)


def _agg_max(values: Sequence[Term]) -> Term:
    return max(values, key=sort_key)


def _agg_sum(values: Sequence[Term]) -> Term:
    return _number("sum", _sum("sum", _numeric_values("sum", values)))


def _agg_product(values: Sequence[Term]) -> Term:
    return _number("product", _product(_numeric_values("product", values)))


def _agg_mean(values: Sequence[Term]) -> Term:
    nums = _numeric_values("mean", values)
    return _number("mean", _sum("mean", nums) / len(nums))


def _agg_std_dev(values: Sequence[Term]) -> Term:
    nums = _numeric_values("std_dev", values)
    mean = _sum("std_dev", nums) / len(nums)
    variance = _sum("std_dev", [(x - mean) ** 2 for x in nums]) / len(nums)
    return _number("std_dev", math.sqrt(variance))


def _agg_count(values: Sequence[Term]) -> Term:
    return Num(len(values))


def _agg_arbitrary(values: Sequence[Term]) -> Term:
    # "returns a single arbitrary value from the binding set" -- we pick the
    # first in supplementary order, which keeps runs deterministic.
    return values[0]


AGGREGATES: Dict[str, Callable[[Sequence[Term]], Term]] = {
    "min": _agg_min,
    "max": _agg_max,
    "mean": _agg_mean,
    "sum": _agg_sum,
    "product": _agg_product,
    "arbitrary": _agg_arbitrary,
    "std_dev": _agg_std_dev,
    "count": _agg_count,
}


def apply_aggregate(op: str, values: Sequence[Term]) -> Term:
    """Apply aggregator ``op`` to the per-tuple values of one group.

    The group is never empty: an empty supplementary relation stops the
    statement before the aggregator runs (paper Section 3.2).
    """
    fn = AGGREGATES.get(op)
    if fn is None:
        raise GlueRuntimeError(f"unknown aggregate operator {op}")
    if not values:
        raise GlueRuntimeError(f"{op} applied to an empty group")
    return fn(values)
