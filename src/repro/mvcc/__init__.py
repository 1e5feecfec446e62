"""MVCC snapshot reads: immutable published versions for lock-free readers.

The server's writer-preferring RWLock stalls every reader for the whole
write window.  This package gives read-only requests an immutable snapshot
of the EDB catalog instead: writers prepare against the live relations
(their in-progress batches stay private because frozen snapshots
copy-on-write, see ``Relation.freeze``) and *publish* atomically when the
write window closes; readers *pin* the latest published catalog and
evaluate against it without touching the lock at all, so the RWLock
serializes writers only.  It is the server's only read path.

- ``VersionStore``   -- publishes catalogs of frozen relations, hands out pins
- ``Snapshot``       -- one published catalog: ``{(name, arity): frozen Relation}``
- ``SnapshotRouter`` -- a ``Database``-shaped facade that resolves reads
  through the pinned snapshot (per thread) and routes everything else to
  the live database
"""
