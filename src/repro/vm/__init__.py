"""The Glue virtual machine.

The experimental Glue-Nail implementation compiled programs "for a small
virtual machine" (paper Section 9).  Here the compiler turns each
assignment-statement body into a *plan*: a sequence of steps that transform
the supplementary relation left to right.  The machine executes plans
with one pipelined (nested-join, tuple-at-a-time) executor; fixed subgoals
-- procedure calls, aggregators, updates -- force pipeline breaks exactly
as Section 9 describes, duplicates are removed at each break, and every
break is visible in the cost counters.  The set-at-a-time strategy the
paper compares against is the ``materialized`` baseline of
:class:`repro.oracles.Oracles`.
"""
