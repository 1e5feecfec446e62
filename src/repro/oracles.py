"""Which differential baselines an evaluation runs with.

The product is one configuration: the columnar batch kernels, cost-based
body order and the seminaive fixpoint.  Every layer that can run a
baseline instead takes one :class:`Oracles` value and defaults to
:data:`PRODUCT`, all three switches off.  The baselines are
the references tests and ablations compare against;
:mod:`repro.baselines.reference` is the only way to switch one on.

A leaf module: it imports nothing that imports the engines.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Oracles:
    """Each flag swaps one product path for its baseline.

    ``row_engine``: binding-dict rows instead of columnar batch kernels.
    ``written_order``: bodies in written order instead of the cost
    planner's.  ``naive_fixpoint``: full re-derivation every pass instead
    of seminaive (uniondiff) iteration.
    """

    row_engine: bool = False
    written_order: bool = False
    naive_fixpoint: bool = False

    @property
    def fixpoint(self) -> str:
        """The fixpoint's name, as EXPLAIN and ``strategy=`` trace fields show it."""
        return "naive" if self.naive_fixpoint else "seminaive"


PRODUCT = Oracles()
