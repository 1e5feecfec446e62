"""Compile-time analyses (paper Sections 2, 3.1, 6, 9).

The Glue compiler's stated aim is "to do as much as possible at compile
time": resolving which predicate class a subgoal refers to (EDB relation,
local relation, NAIL! predicate, Glue procedure, builtin), determining when
variables become bound, and identifying *fixed* subgoals that may not be
reordered.  Reordering the remaining subgoals is :mod:`repro.opt`'s job.
"""
