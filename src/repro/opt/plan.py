"""The logical plan the pass pipeline produces.

A :class:`Plan` is a scheduled rule/statement body: one :class:`PlanStep`
per subgoal in execution order, each carrying the estimated binding count
after the step (``est_rows``), the snapshot cardinality of the scanned
relation, the probe-key columns, and -- when projection push-down applies
-- the variables still live afterwards.  Both runtimes execute the
schedule and emit the estimates next to actual row counts in the unified
``"join"`` trace events, which is what EXPLAIN ANALYZE renders side by
side.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from repro.record import Record

#: Selectivity assumed for a filter comparison when nothing better is
#: known: ``=`` keeps ~1 in 10 bindings, any other operator ~1 in 2.
EQ_SELECTIVITY = 0.1
DEFAULT_SELECTIVITY = 0.5


def filter_selectivity(op: str) -> float:
    return EQ_SELECTIVITY if op == "=" else DEFAULT_SELECTIVITY


def fmt_est(value: Optional[float]) -> str:
    """Render an estimate for EXPLAIN output (``?`` when unknown)."""
    if value is None:
        return "?"
    if value >= 1_000_000:
        return f"{value:.2e}"
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}".rstrip("0").rstrip(".")


def subgoal_label(subgoal) -> str:
    """A compact, deterministic label for one body subgoal."""
    pred = getattr(subgoal, "pred", None)
    args = getattr(subgoal, "args", None)
    if pred is not None and args is not None:
        neg = "!" if getattr(subgoal, "negated", False) else ""
        return f"{neg}{pred}/{len(args)}"
    op = getattr(subgoal, "op", None)
    if op is not None:
        return f"compare '{op}'"
    return type(subgoal).__name__


class PlanStep(Record):
    """One scheduled subgoal.

    ``index`` is the subgoal's position in the *source* body; ``kind`` is
    ``"scan"``, ``"neg"``, ``"filter"``, ``"bind"``, ``"fixed"`` or
    ``"other"``.  ``est_in``/``est_rows`` are the estimated binding counts
    entering/leaving the step (``None`` when no estimate survives -- the
    fallback matrix in docs/PERFORMANCE.md).  ``project`` lists the live
    variables to keep after the step when projection push-down fired.
    """

    __slots__ = ("index", "subgoal", "kind", "est_in", "est_rows", "source_rows", "probe_cols",
                 "project")

    def __init__(self, index: int, subgoal: object, kind: str, est_in: Optional[float] = None,
                 est_rows: Optional[float] = None, source_rows: Optional[int] = None,
                 probe_cols: Tuple[int, ...] = (),
                 project: Optional[Tuple[str, ...]] = None) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "subgoal", subgoal)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "est_in", est_in)
        object.__setattr__(self, "est_rows", est_rows)
        object.__setattr__(self, "source_rows", source_rows)
        object.__setattr__(self, "probe_cols", probe_cols)
        object.__setattr__(self, "project", project)


class Plan(Record, uncompared=("distinct",)):
    """A scheduled body: steps in execution order plus the passes that ran.

    ``distinct`` maps each variable the body binds from a relation with
    known statistics to its estimated number of distinct values.
    """

    __slots__ = ("body", "steps", "passes", "distinct")

    def __init__(self, body: Tuple, steps: Tuple[PlanStep, ...], passes: Tuple[str, ...],
                 distinct: Optional[Mapping[str, float]] = None) -> None:
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "passes", passes)
        object.__setattr__(self, "distinct", {} if distinct is None else distinct)

    @property
    def order(self) -> Tuple[int, ...]:
        """Source-body indexes in execution order."""
        return tuple(step.index for step in self.steps)

    @property
    def ordered_body(self) -> Tuple:
        return tuple(step.subgoal for step in self.steps)

    def describe(self) -> List[str]:
        """EXPLAIN lines, one per step in execution order."""
        lines: List[str] = []
        for pos, step in enumerate(self.steps):
            parts = [f"{pos}: {step.kind:6s} {subgoal_label(step.subgoal)}"]
            if step.probe_cols:
                parts.append(f"key@{list(step.probe_cols)}")
            if step.source_rows is not None:
                parts.append(f"rows={step.source_rows}")
            parts.append(f"est~{fmt_est(step.est_rows)}")
            if step.project is not None:
                parts.append(f"project({','.join(step.project)})")
            lines.append(" ".join(parts))
        return lines
