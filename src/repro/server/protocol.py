"""The JSON-lines wire protocol of the Glue-Nail query server.

One request per line, one response per line, UTF-8 JSON either way,
written without optional whitespace.

Request::

    {"op":"query","q":"path(1, X)?","id":7}

``id`` is optional and echoed back verbatim.  Response::

    {"ok":true,"id":7,"count":2,"columns":[[1,1],[2,3]],
     "stats":{...},"resolution":"nail"}

or on failure ``{"ok":false,"id":7,"error":"...","kind":"..."}``.

A result (the ``query``, ``rows`` and ``call`` ops) travels once, column by
column: ``count`` is the number of rows and ``columns[i]`` holds the i-th
value of every row, in row order.  Values are the lowering of
:func:`repro.core.query.rows_to_python` -- atoms as strings, numbers as
numbers, compound terms as nested arrays ``[functor, arg, ...]``.  A true
nullary answer (``p()?``) is ``count`` 1 with no columns; an empty answer is
``count`` 0.  No per-row container exists on the wire, and none is built
on the server; the client rebuilds the row tuples with one ``zip``
(:func:`decode_values`).  Fact syntax is not sent: the client renders it
on demand (:attr:`repro.server.client.RemoteResult.facts`).  Subscription
notification frames and the ``subscribe`` snapshot carry their rows in the
same form.  ``stats`` carries the per-session
:class:`~repro.obs.query_stats.QueryStats` -- sessions count on
thread-local counters, so concurrent queries never corrupt each other's
deltas.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any, List, Optional

from repro.core.query import term_to_python
from repro.obs.query_stats import QueryStats
from repro.terms.term import SCALAR_TYPES

MAX_LINE = 16 * 1024 * 1024  # defensive bound on one request/response line


class ProtocolError(ValueError):
    """A malformed request line (or result payload)."""


_EXPECTED = {str: "a string", int: "an integer", list: "an array", bool: "a boolean"}


def request_field(request: dict, name: str, kind: type, default: Any) -> Any:
    """``request[name]``, or ``default`` when absent, checked to be a
    ``kind`` (``str``, ``int``, ``list`` or ``bool``; a JSON boolean is
    not an integer).  A field whose default is None is optional and may be
    null.  Any other value is a :class:`ProtocolError` that names the
    field."""
    value = request.get(name, default)
    if value is None and default is None:
        return None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ProtocolError(f"field {name!r} must be {_EXPECTED[kind]}")
    return value


def request_rows(request: dict, name: str, default: list) -> List[tuple]:
    """A field holding rows: an array of arrays, as tuples."""
    rows = request_field(request, name, list, default)
    if not all(isinstance(row, list) for row in rows):
        raise ProtocolError(f"field {name!r} must be an array of arrays")
    return [tuple(row) for row in rows]


def encode(payload: dict) -> str:
    """One response (or request) as a single JSON line."""
    return json.dumps(payload, separators=(",", ":"), default=str)


def decode(line: str) -> dict:
    if len(line) > MAX_LINE:
        raise ProtocolError(f"request line exceeds {MAX_LINE} bytes")
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("a request must be a JSON object")
    return payload


def ok_response(request_id: Optional[Any] = None, **fields) -> dict:
    payload = {"ok": True}
    if request_id is not None:
        payload["id"] = request_id
    payload.update(fields)
    return payload


def error_response(
    message: str, request_id: Optional[Any] = None, kind: str = "error"
) -> dict:
    payload = {"ok": False, "error": message, "kind": kind}
    if request_id is not None:
        payload["id"] = request_id
    return payload


def stats_payload(stats: Optional[QueryStats]) -> Optional[dict]:
    """A QueryStats as wire-safe JSON (full counter delta included)."""
    if stats is None:
        return None
    return {
        "query": stats.query,
        "resolution": stats.resolution,
        "rows": stats.rows,
        "elapsed_ms": round(stats.elapsed_s * 1000.0, 3),
        "counters": dict(stats.counters),
    }


# ---------------------------------------------------------------------- #
# rows on the wire: {"count": n, "columns": [[v, ...], ...]}
# ---------------------------------------------------------------------- #


def columns_payload(rows) -> dict:
    """Term rows as ``{"count": n, "columns": [...]}``.  Atoms and numbers
    are ``str`` / ``int`` / ``float`` values and go to JSON as they are; only
    a column that holds some other term is lowered, through
    :func:`term_to_python`.  A row whose length differs from the first
    row's is a bug upstream; refuse it rather than let a column come out
    short."""
    if not rows:
        return {"count": 0, "columns": []}
    arity = len(rows[0])
    if len(set(map(len, rows))) != 1:
        bad = next(k for k, row in enumerate(rows) if len(row) != arity)
        raise ValueError(
            f"ragged result: row {bad} has {len(rows[bad])} values, "
            f"row 0 has {arity}"
        )
    columns = [list(map(itemgetter(i), rows)) for i in range(arity)]
    for i, column in enumerate(columns):
        if not set(map(type, column)) <= SCALAR_TYPES:
            columns[i] = list(map(term_to_python, column))
    return {"count": len(rows), "columns": columns}


def decode_values(payload: dict) -> List[tuple]:
    """The value tuples of a :func:`columns_payload` that went over the
    wire: compound terms (JSON arrays) come back as nested tuples, the
    shape of :meth:`repro.core.result.QueryResult.to_python`."""
    count = payload.get("count", 0)
    columns = payload.get("columns", [])
    for column in columns:
        if len(column) != count:
            raise ProtocolError(
                f"result column has {len(column)} values for {count} rows"
            )
    if not columns:
        return [()] * count
    return list(zip(*[
        [_listed_to_tuple(v) for v in column] if list in set(map(type, column))
        else column
        for column in columns
    ]))


def _listed_to_tuple(value):
    """JSON arrays (compound terms) back to nested tuples."""
    if isinstance(value, list):
        return tuple(_listed_to_tuple(v) for v in value)
    return value


def notification_frame(note) -> dict:
    """A pushed subscription notification as a wire frame.

    Notification frames are distinguished from responses by the
    ``"event"`` key (responses carry ``"ok"`` instead); rows travel as
    ``count`` + ``columns``, like a result.  ``seq`` is monotone per
    subscription; a gap (or an explicit ``resync`` op) tells the consumer
    to re-read the predicate before trusting further deltas.
    """
    payload = note.payload()
    payload["event"] = "notification"
    payload.update(columns_payload(note.rows))
    return payload


def rows_payload(result) -> dict:
    """Rows + metadata of a QueryResult (or plain row list)."""
    payload = columns_payload(result)
    stats = getattr(result, "stats", None)
    if stats is not None:
        payload["stats"] = stats_payload(stats)
    resolution = getattr(result, "resolution", None)
    if resolution is not None:
        payload["resolution"] = resolution
    return payload
