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

from repro.server.client import (
    Client,
    ClientNotification,
    ClientSubscription,
    ConnectionClosed,
    RemoteError,
    RemoteResult,
)
from repro.server.gcpolicy import set_gc_policy
from repro.server.protocol import ProtocolError, decode, encode
from repro.server.rwlock import RWLock
from repro.server.server import DEFAULT_PORT, GlueNailServer, Session

__all__ = [
    "Client",
    "ClientNotification",
    "ClientSubscription",
    "ConnectionClosed",
    "DEFAULT_PORT",
    "GlueNailServer",
    "ProtocolError",
    "RWLock",
    "RemoteError",
    "RemoteResult",
    "Session",
    "decode",
    "encode",
    "set_gc_policy",
]
