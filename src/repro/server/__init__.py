"""The concurrent Glue-Nail query service.

Turns the embedded, single-user engine of the paper into a multi-client
server: a threaded JSON-lines TCP front end (:mod:`repro.server.server`),
MVCC snapshot reads that run read-only queries concurrently and lock-free
(:mod:`repro.mvcc`) while EDB updates serialize on the write side of a
readers-writer lock (:mod:`repro.server.rwlock`), the wire protocol
(:mod:`repro.server.protocol`), a small blocking client
(:mod:`repro.server.client`), and the serve process's cycle-collector
policy (:mod:`repro.server.gcpolicy`).  ``gluenail serve`` / ``gluenail
connect`` are the CLI entry points.
"""
