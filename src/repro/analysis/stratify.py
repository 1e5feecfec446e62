"""Stratification of NAIL! rule sets.

Glue-Nail, like LDL and CORAL, evaluates negation (and aggregation, which
stratifies identically) stratum by stratum: a program is stratified when no
predicate depends negatively on itself through any cycle.  The strata are
the strongly connected components of the dependency graph in bottom-up
topological order.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.analysis.depgraph import DependencyGraph
from repro.analysis.scope import Skeleton
from repro.errors import CompileError
from repro.record import Record


class StratificationError(CompileError):
    """The rule set has a negative (or aggregate) dependency inside a cycle."""


class Stratum(Record):
    """One evaluation unit: a set of mutually recursive IDB predicates."""

    __slots__ = ("index", "skeletons")

    def __init__(self, index: int, skeletons: frozenset) -> None:
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "skeletons", skeletons)


def stratify(dep: DependencyGraph) -> List[Stratum]:
    """Split the IDB into bottom-up strata; raise if not stratified.

    Only IDB skeletons (those with rules) appear in strata; EDB leaves are
    stratum-less inputs.  A single-node component counts as recursive when
    it has a self-loop.
    """
    idb = dep.idb_skeletons()
    negative = set(dep.negative_edges())
    components = dep.sccs()

    # Index of the component containing each skeleton.
    component_of = {}
    for idx, members in enumerate(components):
        for skeleton in members:
            component_of[skeleton] = idx

    for u, v in negative:
        if component_of.get(u) == component_of.get(v) and v in idb:
            raise StratificationError(
                f"not stratified: {u} depends negatively on {v} inside a cycle"
            )

    strata: List[Stratum] = []
    for members in components:
        idb_members = frozenset(m for m in members if m in idb)
        if idb_members:
            strata.append(Stratum(index=len(strata), skeletons=idb_members))
    return strata


def component_is_recursive(dep: DependencyGraph, skeletons: Sequence[Skeleton]) -> bool:
    """True when the component needs fixpoint iteration: more than one
    member, or a member with a self-edge."""
    members: Set[Skeleton] = set(skeletons)
    if len(members) > 1:
        return True
    (only,) = members
    return only in dep.edges[only]
