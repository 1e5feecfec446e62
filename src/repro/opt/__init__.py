"""repro.opt: the shared cost-based planner for both join engines.

One public facade -- :func:`optimize` -- plans NAIL! rule bodies and Glue
VM statement bodies alike: an ordered pass pipeline (constant-selection
pull-forward, greedy cost-based join ordering with bound-variable
propagation, projection push-down) over a small logical plan, costed
against consistent per-relation statistics snapshots.  ``optimize(body,
pipeline=())`` keeps the written order and only annotates estimates; the
engines run written order only as the differential baseline
(``reference_system(written_order=True)`` in
:mod:`repro.baselines.reference`).

The leaf analysis, :func:`classify_join_columns`, returns one
:class:`LiteralPlan` per (literal, bound-variable set); both engines run
the literal from it and name its strategy from :data:`JOIN_STRATEGIES`.
At run time both engines plan through a :class:`PlanCache`, which plans a
body once per size bucket.
"""

from repro.opt.cache import PlanCache
from repro.opt.literal import (
    JOIN_STRATEGIES,
    LiteralPlan,
    classify_join_columns,
    trace_join,
)
from repro.opt.passes import (
    DEFAULT_COST_PIPELINE,
    PASSES,
    PassContext,
    PlanState,
    optimize,
)
from repro.opt.plan import Plan, PlanStep, filter_selectivity, fmt_est
from repro.opt.stats import RelationSnapshot, StatsContext, coerce_snapshot

__all__ = [
    "DEFAULT_COST_PIPELINE",
    "JOIN_STRATEGIES",
    "LiteralPlan",
    "PASSES",
    "PassContext",
    "Plan",
    "PlanCache",
    "PlanState",
    "PlanStep",
    "RelationSnapshot",
    "StatsContext",
    "classify_join_columns",
    "coerce_snapshot",
    "filter_selectivity",
    "fmt_est",
    "optimize",
    "trace_join",
]
