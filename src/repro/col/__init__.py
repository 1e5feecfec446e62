"""repro.col: columnar batch execution for the join hot path.

Flat relations are encoded as parallel arrays of interned term ids (one
:class:`AtomTable` shared per database), rule-body binding streams become
:class:`Batch` objects, and the dominant join kernels -- hash build,
probe/extract, eq-check filter, dedup, membership -- run as plan-
specialized batch operators instead of per-tuple ``dict[var, Term]``
shuffling.  The binding-dict row engine stays as the differential
baseline (``reference_system(row_engine=True)`` in
:mod:`repro.baselines.reference`); a columnar run charges bit-identical
cost counters (see :mod:`repro.col.kernels` for the parity contract), so
the two are interchangeable everywhere.
"""
