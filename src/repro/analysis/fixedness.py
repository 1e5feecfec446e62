"""Fixed-subgoal analysis (paper Section 3.1).

    "A fixed subgoal is either an EDB updating subgoal, a group_by, an
    aggregator, or a call to a Glue procedure which is known to be fixed.
    A Glue procedure is fixed if it contains a fixed subgoal.  The
    predefined I/O procedures are all fixed."

Fixed subgoals anchor the left-to-right evaluation order: the optimizer may
reorder only the non-fixed subgoals between them, and no subgoal may move
past an aggregator.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.analysis.bindings import expr_has_agg
from repro.lang.ast import (
    CompareSubgoal,
    EmptyCond,
    GroupBySubgoal,
    PredSubgoal,
    UnchangedCond,
    UnionSubgoal,
    UpdateSubgoal,
)

# Resolves a PredSubgoal to True (fixed call), False (not fixed), or None
# (not a call at all -- a plain relation/NAIL subgoal).
CallFixedness = Callable[[PredSubgoal], Optional[bool]]


def _never_a_call(_subgoal: PredSubgoal) -> Optional[bool]:
    return None


def is_fixed_subgoal(subgoal, call_fixedness: CallFixedness = _never_a_call) -> bool:
    """Is this subgoal fixed (immovable, side-effecting or aggregating)?"""
    if isinstance(subgoal, UpdateSubgoal):
        return True
    if isinstance(subgoal, GroupBySubgoal):
        return True
    if isinstance(subgoal, CompareSubgoal):
        return expr_has_agg(subgoal.left) or expr_has_agg(subgoal.right)
    if isinstance(subgoal, UnchangedCond):
        # unchanged() reads mutable history; its position matters.
        return True
    if isinstance(subgoal, EmptyCond):
        return False
    if isinstance(subgoal, PredSubgoal):
        resolved = call_fixedness(subgoal)
        return bool(resolved)
    if isinstance(subgoal, UnionSubgoal):
        return any(
            is_fixed_subgoal(inner, call_fixedness)
            for alt in subgoal.alternatives
            for inner in alt
        )
    return False


def is_updating_subgoal(subgoal, call_writes: CallFixedness = _never_a_call) -> bool:
    """Does this subgoal change the EDB: an update (``++``/``--``), a call
    of a writing procedure, or a union with such an alternative?"""
    if isinstance(subgoal, UnionSubgoal):
        return any(
            is_updating_subgoal(inner, call_writes)
            for alt in subgoal.alternatives
            for inner in alt
        )
    if isinstance(subgoal, PredSubgoal):
        return bool(call_writes(subgoal))
    return isinstance(subgoal, UpdateSubgoal)


def is_aggregating_subgoal(subgoal) -> bool:
    """Aggregators are a hard barrier: subgoals cannot move past them in
    *either* direction (they change the meaning of the supplementary set)."""
    if isinstance(subgoal, CompareSubgoal):
        return expr_has_agg(subgoal.left) or expr_has_agg(subgoal.right)
    return isinstance(subgoal, GroupBySubgoal)
