"""Query-execution observability: tracing, per-query stats, EXPLAIN ANALYZE.

The subsystem has three parts:

* :mod:`repro.obs.tracer` -- a :class:`Tracer` hub owned by each
  :class:`~repro.storage.database.Database` and threaded through the VM,
  the NAIL! engine and the relations.  Disabled until a sink is
  installed; traced and untraced runs execute the same code.
* :mod:`repro.obs.query_stats` -- :class:`QueryStats`, the per-entry-point
  counter-delta/elapsed-time record carried by every
  :class:`~repro.core.result.QueryResult`.
* :mod:`repro.obs.report` -- renderers for EXPLAIN ANALYZE reports and
  REPL profiles.
"""
