"""The product's own baselines, kept as differential references.

Three paths the product replaced stay runnable so tests and ablations can
compare against them (see :mod:`repro.oracles`): the binding-dict row
engine, written body order and the naive fixpoint.  No
product constructor, CLI flag or REPL command selects one; these helpers
are the only way in::

    reference_system(naive_fixpoint=True, written_order=True)
    reference_engine(db, rules, row_engine=True)
    reference_server(row_engine=True, port=0, program=source)

With every flag off each helper builds exactly the product.  Lower layers
(``magic_query``, ``eval_rule_body``, ``seminaive_eval``, ...) take an
``oracles=`` value; build it with :class:`Oracles`, re-exported here.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence

from repro.core.system import GlueNailSystem
from repro.lang.ast import RuleDecl
from repro.nail.engine import NailEngine
from repro.oracles import Oracles
from repro.server.server import GlueNailServer
from repro.storage.database import Database

__all__ = ["Oracles", "reference_engine", "reference_server", "reference_system"]


def _system(oracles: Oracles, **system_kwargs) -> GlueNailSystem:
    system = GlueNailSystem(**system_kwargs)
    system._oracles = oracles
    return system


class _ReferenceServer(GlueNailServer):
    def __init__(self, *, oracles: Oracles, **server_kwargs):
        # Read by the base constructor for the subscription host, and by
        # every session after it.
        self.system_factory = partial(_system, oracles)
        super().__init__(**server_kwargs)


def reference_system(
    *,
    row_engine: bool = False,
    written_order: bool = False,
    naive_fixpoint: bool = False,
    **system_kwargs,
) -> GlueNailSystem:
    """A :class:`GlueNailSystem` (``system_kwargs`` as its constructor's)
    whose compiler, VM and NAIL! engine run the chosen baselines."""
    oracles = Oracles(row_engine, written_order, naive_fixpoint)
    return _system(oracles, **system_kwargs)


def reference_engine(
    db: Database,
    rules: Sequence[RuleDecl],
    *,
    row_engine: bool = False,
    written_order: bool = False,
    naive_fixpoint: bool = False,
    **engine_kwargs,
) -> NailEngine:
    """A :class:`NailEngine` (``engine_kwargs`` as its constructor's) that
    runs the chosen baselines."""
    oracles = Oracles(row_engine, written_order, naive_fixpoint)
    return NailEngine(db, rules, oracles=oracles, **engine_kwargs)


def reference_server(
    *,
    row_engine: bool = False,
    written_order: bool = False,
    naive_fixpoint: bool = False,
    **server_kwargs,
) -> GlueNailServer:
    """A :class:`GlueNailServer` (``server_kwargs`` as its constructor's)
    whose sessions and subscription host run the chosen baselines."""
    oracles = Oracles(row_engine, written_order, naive_fixpoint)
    return _ReferenceServer(oracles=oracles, **server_kwargs)
