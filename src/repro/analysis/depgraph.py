"""The predicate dependency graph of a NAIL! rule set.

Nodes are predicate skeletons; there is an edge from the head's skeleton to
each body predicate's skeleton, marked negative when the body literal is
negated or separated by aggregation (aggregate values must be complete
before they are read, so they stratify exactly like negation -- the choice
LDL and CORAL also make, paper Section 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

import networkx as nx

from repro.analysis.bindings import expr_has_agg
from repro.analysis.scope import Skeleton, pred_skeleton
from repro.lang.ast import CompareSubgoal, PredSubgoal, RuleDecl

# networkx caches these views on a graph the first time they are read, and
# each one points back at the graph: a cycle that only the cycle collector
# frees.  They are dropped after use, so a graph dies by reference count.
_BACK_POINTING_VIEWS = ("edges", "out_edges", "in_edges", "degree", "in_degree",
                        "out_degree")


def _drop_views(graph: nx.DiGraph) -> None:
    for name in _BACK_POINTING_VIEWS:
        graph.__dict__.pop(name, None)


@dataclass
class DependencyGraph:
    graph: nx.DiGraph
    rules_by_head: Dict[Skeleton, List[RuleDecl]] = field(default_factory=dict)

    def sccs(self) -> List[Set[Skeleton]]:
        """Strongly connected components in dependency (topological) order:
        earlier components do not depend on later ones."""
        condensation = nx.condensation(self.graph)
        order = list(nx.topological_sort(condensation))
        _drop_views(self.graph)
        _drop_views(condensation)
        # condensation edges point from a node to its dependencies (we add
        # head -> body edges), so dependencies come *later* in a forward
        # topological order; reverse to evaluate bottom-up.
        order.reverse()
        return [set(condensation.nodes[c]["members"]) for c in order]

    def negative_edges(self) -> List[Tuple[Skeleton, Skeleton]]:
        return [
            (u, v)
            for u, targets in self.graph.adjacency()
            for v, data in targets.items()
            if data.get("negative", False)
        ]

    def idb_skeletons(self) -> Set[Skeleton]:
        return set(self.rules_by_head)


def rule_body_dependencies(rule: RuleDecl) -> List[Tuple[Skeleton, bool]]:
    """(skeleton, negative?) for each predicate literal in the rule body.

    A predicate-variable subgoal has skeleton base ``None``; callers decide
    how to close over the candidate set.  A rule containing any aggregate
    comparison makes *all* its body dependencies negative: the aggregate
    needs the complete extension of everything it ranges over.
    """
    has_agg = any(
        isinstance(s, CompareSubgoal) and (expr_has_agg(s.left) or expr_has_agg(s.right))
        for s in rule.body
    )
    out: List[Tuple[Skeleton, bool]] = []
    for subgoal in rule.body:
        if not isinstance(subgoal, PredSubgoal):
            continue
        skeleton = pred_skeleton(subgoal.pred, len(subgoal.args))
        out.append((skeleton, subgoal.negated or has_agg))
    return out


def build_dependency_graph(rules: Iterable[RuleDecl]) -> DependencyGraph:
    graph = nx.DiGraph()
    rules_by_head: Dict[Skeleton, List[RuleDecl]] = {}
    rules = list(rules)
    for rule in rules:
        head = pred_skeleton(rule.head_pred, len(rule.head_args))
        rules_by_head.setdefault(head, []).append(rule)
        graph.add_node(head)
    for rule in rules:
        head = pred_skeleton(rule.head_pred, len(rule.head_args))
        for skeleton, negative in rule_body_dependencies(rule):
            # A predicate variable ranges over every name (HiLog's set of
            # names), so it reads each NAIL! predicate of its arity.
            targets = (
                [s for s in rules_by_head if s[2] == skeleton[2]]
                if skeleton[0] is None
                else [skeleton]
            )
            for target in targets:
                if graph.has_edge(head, target):
                    if negative:
                        graph[head][target]["negative"] = True
                else:
                    graph.add_edge(head, target, negative=negative)
    return DependencyGraph(graph=graph, rules_by_head=rules_by_head)
