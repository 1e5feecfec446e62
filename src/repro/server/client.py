"""A small blocking client for the Glue-Nail query server.

::

    from repro.server.client import Client

    with Client(port=server.port) as client:
        client.facts("edge", [(1, 2), (2, 3)])
        client.load("path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y) & edge(Y, Z).")
        result = client.query("path(1, X)?")
        result               # [(1, 2), (1, 3)] -- value tuples
        result.facts         # ["(1, 2)", "(1, 3)"] -- fact syntax, on demand
        result.stats         # per-session QueryStats payload (dict)

One request / one response per call, JSON lines over a TCP socket; errors
come back as :class:`RemoteError` carrying the server's message.

Subscriptions make the stream bidirectional: after ``client.subscribe``,
the server pushes notification frames (``"event": "notification"``)
interleaved with responses.  The client demultiplexes -- frames arriving
while a request waits for its response are buffered into the matching
subscription -- and :meth:`ClientSubscription.next` (or iteration) reads
further frames off the socket directly.
"""

from __future__ import annotations

import socket
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence

from repro.server.protocol import MAX_LINE, decode, decode_values, encode
from repro.terms.printer import tuple_to_str
from repro.terms.term import mk

DEFAULT_PORT = 7411


class RemoteError(Exception):
    """The server answered ``ok: false``."""

    def __init__(self, message: str, kind: str = "error"):
        super().__init__(message)
        self.kind = kind


class ConnectionClosed(ConnectionError):
    """The server closed the connection (EOF on the socket)."""


class RemoteResult(list):
    """Rows from the server as value tuples -- atoms as str, numbers as
    int/float, compound terms as nested tuples: the shape of
    :meth:`~repro.core.result.QueryResult.to_python`.  ``values`` is the
    list itself; ``facts`` renders fact syntax on demand; ``stats``,
    ``resolution`` and ``trace`` mirror :class:`~repro.core.result.QueryResult`."""

    def __init__(self, payload: dict):
        super().__init__(decode_values(payload))
        self.stats: Optional[dict] = payload.get("stats")
        self.resolution: Optional[str] = payload.get("resolution")
        self.trace: List[dict] = payload.get("trace", [])

    @property
    def values(self) -> List[tuple]:
        return self

    @cached_property
    def facts(self) -> List[str]:
        """Each row in fact syntax, e.g. ``"(1, 'New York')"``."""
        return [tuple_to_str(map(mk, row)) for row in self]


class ClientNotification:
    """One pushed delta: ``sub``, ``seq``, ``predicate``, ``op``
    (``insert`` / ``delete`` / ``resync``), ``rows`` (tuples), ``txn``,
    ``version`` (the published database version this delta brought the
    predicate to -- the version an MVCC snapshot reader pins to see it),
    and ``dropped`` (how many notifications a slow consumer lost before a
    ``resync``)."""

    __slots__ = ("sub", "seq", "predicate", "op", "rows", "txn", "version",
                 "dropped")

    def __init__(self, frame: dict):
        self.sub: int = frame.get("sub", 0)
        self.seq: int = frame.get("seq", 0)
        self.predicate: str = frame.get("predicate", "")
        self.op: str = frame.get("op", "")
        self.rows: List[tuple] = decode_values(frame)
        self.txn: int = frame.get("txn", 0)
        self.version: int = frame.get("version", 0)
        self.dropped: int = frame.get("dropped", 0)

    def __repr__(self) -> str:
        return (
            f"ClientNotification({self.predicate} {self.op} "
            f"seq={self.seq} rows={len(self.rows)})"
        )


class ClientSubscription:
    """One live subscription: iterate it (blocking) or poll with
    :meth:`next`; notifications that arrived interleaved with other
    requests are buffered and drained first."""

    def __init__(self, client: "Client", sub_id: int, predicate: str, kind: str,
                 snapshot: Optional[List[tuple]] = None):
        self.client = client
        self.id = sub_id
        self.predicate = predicate
        self.kind = kind  # "edb" | "idb"
        #: Rows at subscribe time when requested with ``snapshot=True``.
        self.snapshot = snapshot
        self.active = True
        self._buffer: List[ClientNotification] = []

    def next(self, timeout: Optional[float] = None) -> Optional[ClientNotification]:
        """The next notification, waiting up to ``timeout`` seconds
        (``None`` blocks on the client's default timeout); returns None if
        nothing arrived in time."""
        if self._buffer:
            return self._buffer.pop(0)
        if not self.active:
            return None
        return self.client._wait_notification(self, timeout)

    def __iter__(self):
        while self.active or self._buffer:
            note = self.next()
            if note is None:
                return
            yield note

    def close(self) -> None:
        """Unsubscribe on the server and stop iterating."""
        if self.active:
            self.client.unsubscribe(self)


class Client:
    """A blocking JSON-lines connection to one server session."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: Optional[float] = 30.0):
        self.timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # Reading goes through our own buffer (not socket.makefile): a
        # timed-out read must keep the partial line for the next call, and
        # per-call timeouts need sock.settimeout between recv()s.
        self._recv_buf = bytearray()
        self._writer = self._sock.makefile("w", encoding="utf-8", newline="\n")
        self._next_id = 0
        self._subs: Dict[int, ClientSubscription] = {}
        self._closed = False

    # -------------------------------------------------------------- #
    # the wire
    # -------------------------------------------------------------- #

    def _read_line(self, timeout: Optional[float]) -> Optional[str]:
        """One frame line, or None on timeout.  Raises ConnectionClosed
        on EOF; a timeout leaves any partial line buffered."""
        deadline_timeout = self.timeout if timeout is None else timeout
        while True:
            newline = self._recv_buf.find(b"\n")
            if newline >= 0:
                line = self._recv_buf[: newline + 1]
                del self._recv_buf[: newline + 1]
                return line.decode("utf-8", errors="replace").strip()
            if len(self._recv_buf) > MAX_LINE:
                raise ConnectionError(
                    f"server frame exceeds {MAX_LINE} bytes"
                )
            self._sock.settimeout(deadline_timeout)
            try:
                chunk = self._sock.recv(65536)
            except (socket.timeout, TimeoutError):
                return None
            if not chunk:
                raise ConnectionClosed("server closed the connection")
            self._recv_buf.extend(chunk)

    def _read_frame(self, timeout: Optional[float]) -> Optional[dict]:
        line = self._read_line(timeout)
        if line is None or not line:
            return None
        return decode(line)

    def _dispatch_notification(self, frame: dict) -> Optional[ClientNotification]:
        note = ClientNotification(frame)
        sub = self._subs.get(note.sub)
        if sub is not None:
            sub._buffer.append(note)
        return note

    def request(self, op: str, timeout: Optional[float] = None, **fields) -> dict:
        """Send one op and return the server's ``ok`` payload.

        Notification frames arriving ahead of the response are routed to
        their subscriptions, never lost.  ``timeout`` overrides the
        client default for this call; expiry raises :class:`TimeoutError`.
        """
        self._next_id += 1
        payload = {"op": op, "id": self._next_id}
        payload.update(fields)
        self._writer.write(encode(payload) + "\n")
        self._writer.flush()
        while True:
            frame = self._read_frame(timeout)
            if frame is None:
                raise TimeoutError(
                    f"no response to {op!r} within "
                    f"{self.timeout if timeout is None else timeout}s"
                )
            if frame.get("event") == "notification":
                self._dispatch_notification(frame)
                continue
            if not frame.get("ok"):
                raise RemoteError(frame.get("error", "unknown server error"),
                                  kind=frame.get("kind", "error"))
            return frame

    def _wait_notification(self, sub: ClientSubscription,
                           timeout: Optional[float]) -> Optional[ClientNotification]:
        """Read frames until one lands in ``sub`` (or the timeout expires)."""
        while True:
            frame = self._read_frame(timeout)
            if frame is None:
                return None
            if frame.get("event") == "notification":
                self._dispatch_notification(frame)
                if sub._buffer:
                    return sub._buffer.pop(0)
                continue
            # A response with no request in flight: tolerate and drop.

    # -------------------------------------------------------------- #
    # queries
    # -------------------------------------------------------------- #

    def ping(self) -> str:
        return self.request("ping")["session"]

    def query(self, text: str, magic: bool = False) -> RemoteResult:
        return RemoteResult(self.request("query", q=text, magic=magic))

    def rows(self, name: str, arity: int) -> RemoteResult:
        return RemoteResult(self.request("rows", name=name, arity=arity))

    def call(self, name: str, inputs: Sequence[Sequence] = ((),),
             module: Optional[str] = None, arity: Optional[int] = None) -> RemoteResult:
        return RemoteResult(self.request(
            "call", name=name, inputs=[list(row) for row in inputs],
            module=module, arity=arity,
        ))

    def rels(self) -> List[dict]:
        return self.request("rels")["relations"]

    def stats(self) -> dict:
        return self.request("stats")

    def trace(self, on: bool = True) -> bool:
        return self.request("trace", on=on)["tracing"]

    # -------------------------------------------------------------- #
    # updates and transactions
    # -------------------------------------------------------------- #

    def facts(self, name: str, rows: Sequence[Sequence]) -> int:
        return self.request("facts", name=name,
                            rows=[list(row) for row in rows])["inserted"]

    def fact(self, name: str, *values) -> int:
        return self.facts(name, [values])

    def load(self, source: str) -> None:
        self.request("load", source=source)

    def begin(self) -> None:
        self.request("begin")

    def commit(self) -> None:
        self.request("commit")

    def rollback(self) -> None:
        self.request("rollback")

    def checkpoint(self) -> int:
        return self.request("checkpoint")["checkpointed"]

    def repl(self, line: str) -> str:
        """Feed one raw REPL line; returns the REPL's printed output."""
        return self.request("repl", line=line)["out"]

    # -------------------------------------------------------------- #
    # subscriptions
    # -------------------------------------------------------------- #

    def subscribe(self, name: str, arity: int,
                  pattern: Optional[Sequence] = None,
                  source: Optional[str] = None,
                  capacity: int = 1024,
                  snapshot: bool = False,
                  callback: Optional[Callable] = None) -> ClientSubscription:
        """Register for committed deltas of ``name/arity``.

        ``pattern`` filters rows position by position (``None`` positions
        are wildcards).  ``source`` loads Glue-Nail rules into the
        server's shared subscription program (needed before subscribing
        to an IDB predicate the server does not yet define).
        ``snapshot=True`` captures the current extension atomically with
        registration into ``subscription.snapshot``.  A ``callback`` is
        invoked (on the reading thread) for each notification in addition
        to buffering; reading still happens via :meth:`ClientSubscription.next`
        or iteration.
        """
        fields = {"name": name, "arity": arity, "capacity": capacity}
        if pattern is not None:
            fields["pattern"] = list(pattern)
        if source is not None:
            fields["source"] = source
        if snapshot:
            fields["snapshot"] = True
        response = self.request("subscribe", **fields)
        rows = decode_values(response["snapshot"]) if snapshot else None
        sub = ClientSubscription(
            self, response["sub"], response["predicate"], response["kind"],
            snapshot=rows,
        )
        if callback is not None:
            original_next = sub.next

            def next_with_callback(timeout: Optional[float] = None):
                note = original_next(timeout)
                if note is not None:
                    callback(note)
                return note

            sub.next = next_with_callback  # type: ignore[method-assign]
        self._subs[sub.id] = sub
        return sub

    def unsubscribe(self, sub_or_id) -> None:
        sub_id = sub_or_id.id if isinstance(sub_or_id, ClientSubscription) else sub_or_id
        sub = self._subs.pop(sub_id, None)
        if sub is not None:
            sub.active = False
        self.request("unsubscribe", sub=sub_id)

    # -------------------------------------------------------------- #

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for sub in self._subs.values():
            sub.active = False
        self._subs.clear()
        try:
            try:
                self.request("close", timeout=5.0)
            except (RemoteError, ConnectionError, TimeoutError, OSError):
                pass
        finally:
            self._writer.close()
            self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
