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
