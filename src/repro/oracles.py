"""Which differential baselines an evaluation runs with.

The product is one configuration: the columnar batch kernels, cost-based
body order, the seminaive fixpoint, and the paper's Section 9 VM --
pipelined, breaking only at calls, aggregators and updates, removing
duplicates at each break and dereferencing predicate variables at compile
time.  Every layer that can run a baseline instead takes one
:class:`Oracles` value and defaults to :data:`PRODUCT`, every switch off.
The baselines are the references tests and ablations compare against;
:mod:`repro.baselines.reference` is the only way to switch one on.

A leaf module: it imports nothing that imports the engines.
"""

from __future__ import annotations

from repro.record import Record


class Oracles(Record):
    """Each flag swaps one product path for its baseline.

    ``row_engine``: binding-dict rows instead of columnar batch kernels.
    ``written_order``: bodies in written order instead of the cost
    planner's.  ``naive_fixpoint``: full re-derivation every pass instead
    of seminaive (uniondiff) iteration.  ``materialized``: the VM stores
    and deduplicates every supplementary relation instead of streaming
    until a barrier (experiment E2).  ``keep_duplicates``: the VM keeps
    duplicates at pipeline breaks and disjunctions (experiment E3).
    ``runtime_dispatch``: every predicate-variable subgoal checks its
    predicate's class per row at run time instead of being dereferenced
    at compile time (experiment E8).
    """

    __slots__ = ("row_engine", "written_order", "naive_fixpoint", "materialized", "keep_duplicates",
                 "runtime_dispatch")

    def __init__(self, row_engine: bool = False, written_order: bool = False,
                 naive_fixpoint: bool = False, materialized: bool = False,
                 keep_duplicates: bool = False, runtime_dispatch: bool = False) -> None:
        object.__setattr__(self, "row_engine", row_engine)
        object.__setattr__(self, "written_order", written_order)
        object.__setattr__(self, "naive_fixpoint", naive_fixpoint)
        object.__setattr__(self, "materialized", materialized)
        object.__setattr__(self, "keep_duplicates", keep_duplicates)
        object.__setattr__(self, "runtime_dispatch", runtime_dispatch)

    @property
    def fixpoint(self) -> str:
        """The fixpoint's name, as EXPLAIN and ``strategy=`` trace fields show it."""
        return "naive" if self.naive_fixpoint else "seminaive"


PRODUCT = Oracles()
