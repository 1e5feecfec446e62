"""The product's own baselines, kept as differential references.

The paths the product replaced stay runnable so tests and ablations can
compare against them: one switch per field of :class:`repro.oracles.Oracles`
(the binding-dict row engine, written body order, the naive fixpoint, the
materialize-every-step VM, no duplicate elimination at breaks and run-time
predicate dispatch).  No product constructor, CLI flag or REPL command
selects one; these helpers are the only way in::

    reference_system(naive_fixpoint=True, written_order=True)
    reference_system(materialized=True, keep_duplicates=True)
    reference_engine(db, rules, row_engine=True)
    reference_server(row_engine=True, port=0, program=source)

Each helper passes the keywords that name an ``Oracles`` field to it and
the rest to the constructor, so a new baseline touches only ``Oracles``.
With every flag off each helper builds exactly the product.  Lower layers
(``magic_query``, ``eval_rule_body_batch``, ``seminaive_eval``, ...) take an
``oracles=`` value; build it with :class:`Oracles`, re-exported here.
"""

from __future__ import annotations

from functools import partial
from typing import Sequence, Tuple

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


def _split(kwargs: dict) -> Tuple[Oracles, dict]:
    """``kwargs`` split into the :class:`Oracles` fields it names and the
    constructor arguments left over."""
    chosen = {name: kwargs.pop(name) for name in kwargs.keys() & Oracles.__slots__}
    return Oracles(**chosen), kwargs


def reference_system(**kwargs) -> GlueNailSystem:
    """A :class:`GlueNailSystem` whose compiler, VM and NAIL! engine run the
    baselines named by :class:`Oracles` fields in ``kwargs``; the other
    keywords go to its constructor."""
    oracles, system_kwargs = _split(kwargs)
    return _system(oracles, **system_kwargs)


def reference_engine(db: Database, rules: Sequence[RuleDecl], **kwargs) -> NailEngine:
    """A :class:`NailEngine` that runs the baselines named by
    :class:`Oracles` fields in ``kwargs``; the other keywords go to its
    constructor."""
    oracles, engine_kwargs = _split(kwargs)
    return NailEngine(db, rules, oracles=oracles, **engine_kwargs)


def reference_server(**kwargs) -> GlueNailServer:
    """A :class:`GlueNailServer` whose sessions and subscription host run
    the baselines named by :class:`Oracles` fields in ``kwargs``; the other
    keywords go to its constructor."""
    oracles, server_kwargs = _split(kwargs)
    return _ReferenceServer(oracles=oracles, **server_kwargs)
