"""The NAIL! declarative engine.

NAIL! predicates are IDB: "the appropriate parts of which are computed on
demand using the current value of the EDB" (paper Section 2).  The engine
stratifies the rule set, evaluates each stratum bottom-up with seminaive
iteration built on the back end's ``uniondiff`` operator (Section 10), and
supports demand-driven (magic-sets) evaluation for bound queries.  The
NAIL!-to-Glue compiler (:mod:`repro.nail.nail2glue`) emits equivalent Glue
code, which is the paper's headline integration ("NAIL! code is compiled
into Glue code").
"""
