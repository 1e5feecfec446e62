"""Baselines the paper compares against (Section 8) and design alternatives
it argues against (Sections 9-10), implemented so the comparisons are
runnable:

* :mod:`repro.baselines.extensional_sets` -- LDL/CORAL-style sets whose
  value *is* the member collection, with set-unification equality and
  explicit flattening; contrasted with HiLog name-sets in experiment E7.
* :mod:`repro.baselines.reference` -- the product's own replaced paths as
  whole configurations: the naive fixpoint (full re-derivation instead of
  seminaive/uniondiff; experiment E6), the row engine (the reference for
  counter parity with the columnar kernels), written body order (ablation
  A1), the materialize-every-step VM (E2), no duplicate elimination at
  pipeline breaks (E3) and run-time predicate dispatch -- a four-way class
  check per row instead of compile-time dereferencing (E8).  The only
  way to reach them: no product constructor, CLI flag or REPL command
  selects one.  Row answers are checked against an
  independent reference instead, the sqlite3 evaluator in ``tests/oracle``.
* :class:`repro.storage.adaptive.NeverIndexPolicy` /
  :class:`~repro.storage.adaptive.AlwaysIndexPolicy` -- the degenerate
  indexing policies around the adaptive one; experiment E5.
"""
