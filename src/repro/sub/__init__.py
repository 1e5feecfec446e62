"""Continuous queries: push-based subscriptions over the delta pipeline.

See :mod:`repro.sub.manager` for the design and ``docs/SUBSCRIPTIONS.md``
for the user-facing guarantees.
"""
