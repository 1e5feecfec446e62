"""Compile-time analyses (paper Sections 2, 3.1, 6, 9).

The Glue compiler's stated aim is "to do as much as possible at compile
time": resolving which predicate class a subgoal refers to (EDB relation,
local relation, NAIL! predicate, Glue procedure, builtin), determining when
variables become bound, and identifying *fixed* subgoals that may not be
reordered.  Reordering the remaining subgoals is :mod:`repro.opt`'s job.
"""

from repro.analysis.scope import (
    PredClass,
    PredInfo,
    ScopeError,
    pred_skeleton,
)
from repro.analysis.bindings import BindingError, analyze_bindings, expr_vars, term_vars
from repro.analysis.fixedness import is_fixed_subgoal
from repro.analysis.depgraph import DependencyGraph, build_dependency_graph
from repro.analysis.stratify import StratificationError, stratify

__all__ = [
    "BindingError",
    "DependencyGraph",
    "PredClass",
    "PredInfo",
    "ScopeError",
    "StratificationError",
    "analyze_bindings",
    "build_dependency_graph",
    "expr_vars",
    "is_fixed_subgoal",
    "pred_skeleton",
    "stratify",
    "term_vars",
]
