"""The predicate dependency graph of a NAIL! rule set.

Nodes are predicate skeletons; there is an edge from the head's skeleton to
each body predicate's skeleton, marked negative when the body literal is
negated or separated by aggregation (aggregate values must be complete
before they are read, so they stratify exactly like negation -- the choice
LDL and CORAL also make, paper Section 8).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.bindings import expr_has_agg
from repro.analysis.scope import Skeleton, pred_skeleton
from repro.lang.ast import CompareSubgoal, PredSubgoal, RuleDecl


class DependencyGraph:
    __slots__ = ("edges", "rules_by_head")

    def __init__(self, edges: Dict[Skeleton, Dict[Skeleton, bool]],
                 rules_by_head: Optional[Dict[Skeleton, List[RuleDecl]]] = None) -> None:
        # head skeleton -> {body skeleton: negative?}; every node is a key
        self.edges = edges
        self.rules_by_head = {} if rules_by_head is None else rules_by_head

    def sccs(self) -> List[Set[Skeleton]]:
        """Strongly connected components in dependency (topological) order:
        earlier components do not depend on later ones.

        Tarjan's algorithm with an explicit stack.  Edges point from a head
        to what it reads, so a component is finished only after every
        component it reads: they come out bottom-up.  Roots are visited in
        insertion order, so the order is deterministic.
        """
        index: Dict[Skeleton, int] = {}
        low: Dict[Skeleton, int] = {}
        stack: List[Skeleton] = []
        work: List[Tuple[Skeleton, Iterator[Skeleton]]] = []
        out: List[Set[Skeleton]] = []
        finished = len(self.edges)  # the index of a node already in a component

        def enter(node: Skeleton) -> None:
            index[node] = low[node] = len(index)
            stack.append(node)
            work.append((node, iter(self.edges[node])))

        for root in self.edges:
            if root not in index:
                enter(root)
            while work:
                node, successors = work[-1]
                for succ in successors:
                    if succ not in index:
                        enter(succ)
                        break
                    low[node] = min(low[node], index[succ])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        component: Set[Skeleton] = set()
                        while node not in component:
                            member = stack.pop()
                            index[member] = finished
                            component.add(member)
                        out.append(component)
        return out

    def negative_edges(self) -> List[Tuple[Skeleton, Skeleton]]:
        return [
            (u, v)
            for u, targets in self.edges.items()
            for v, negative in targets.items()
            if negative
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
    edges: Dict[Skeleton, Dict[Skeleton, bool]] = {}
    rules_by_head: Dict[Skeleton, List[RuleDecl]] = {}
    rules = list(rules)
    for rule in rules:
        head = pred_skeleton(rule.head_pred, len(rule.head_args))
        rules_by_head.setdefault(head, []).append(rule)
        edges.setdefault(head, {})
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
                edges.setdefault(target, {})
                edges[head][target] = edges[head].get(target, False) or negative
    return DependencyGraph(edges=edges, rules_by_head=rules_by_head)
