"""A threaded JSON-lines TCP query server over one shared EDB.

The paper's back end is explicitly single-user; this server turns the
embedded engine into a multi-client service:

* one thread per connection (``socketserver.ThreadingTCPServer``), one
  :class:`Session` per connection;
* each session owns its *own* :class:`~repro.core.system.GlueNailSystem`
  (program, compiler, NAIL! engine) over the *shared*
  :class:`~repro.storage.database.Database`, so loaded rules are private
  while the EDB is common;
* the compiled program says which requests write: a ``call`` or query
  whose procedure updates nothing, and every other read, pins the latest
  published MVCC snapshot (see :mod:`repro.mvcc`) and takes no lock;
  writes (fact loads, program loads, writing procedures, transactions)
  serialize on the write side of a lock and publish a new snapshot when
  they finish.  Only a write window declares, mutates or journals;
* per-session stats ride on cost counters kept per connection thread
  (:class:`~repro.storage.stats.ThreadLocalCounters`, a ``threading.local``
  whose ``+=`` runs no Python frame) and session-tagged trace events, so
  concurrent queries never corrupt each other's deltas;
* with a durable store attached (``gluenail serve --db DIR``), committed
  mutations reach the write-ahead log and survive crashes.

A session that issues ``begin`` holds the write lock until its ``commit``
or ``rollback`` (or its disconnect, which rolls back) -- transactions are
globally serialized, the natural reading of the era's flat model.
"""

from __future__ import annotations

import itertools
import socketserver
import threading
from contextlib import contextmanager, nullcontext
from io import StringIO
from typing import Optional

from repro.core.system import GlueNailSystem
from repro.errors import GlueNailError
from repro.lang.parser import parse_query
from repro.mvcc.store import VersionStore
from repro.server.gcpolicy import gc_stats
from repro.server.protocol import (
    ProtocolError,
    columns_payload,
    decode,
    encode,
    error_response,
    notification_frame,
    ok_response,
    request_field,
    request_rows,
    rows_payload,
)
from repro.server.rwlock import RWLock
from repro.storage.database import Database
from repro.storage.stats import ThreadLocalCounters

DEFAULT_PORT = 7411

# REPL dot-commands that never mutate the shared EDB.
_READONLY_DOT = {
    ".help", ".rels", ".dump", ".explain",
    ".profile", ".last", ".stats", ".quit", ".exit",
}
# ... and those that run their argument as a query.
_QUERY_DOT = {".magic", ".analyze"}
# ... and those a server refuses: they read and write files with its rights.
_FILE_DOT = {".save", ".load"}


class Session:
    """One connection's state: a private system over the shared EDB."""

    def __init__(self, server: "GlueNailServer", session_id: int):
        self.server = server
        self.id = session_id
        self.name = f"session-{session_id}"
        self.closed = False
        self._holds_write = False
        self.system = server.system_factory(db=server.db)
        self.system.store = server.store
        # One subscription manager per server: the program's `watch`
        # declarations run once per commit on the server's subscription
        # system, not once per session.
        self.system._subscriptions = server.subscriptions
        # Route this session's reads through the shared version store:
        # read-only requests pin a published snapshot (see repro.mvcc).
        self.system.enable_snapshots(store=server.mvcc_store)
        if server.base_program:
            self.system.load(server.base_program)
        self._repl = None
        self._repl_out: Optional[StringIO] = None
        # Push subscriptions: this session's registrations on the server's
        # SubscriptionManager, the transport the pusher writes frames to,
        # and the pusher thread itself (started on first subscribe).
        self._subs: dict = {}
        self._wfile = None
        self._write_lock = threading.Lock()
        self._push_event = threading.Event()
        self._pusher: Optional[threading.Thread] = None
        # Tag this connection thread's trace events with the session name.
        server.db.tracer.set_session(self.name)

    # -------------------------------------------------------------- #
    # locking
    # -------------------------------------------------------------- #

    def _write_window(self):
        """The write-side bracket: the server's write window, or nothing
        when this session's open transaction already holds it."""
        return nullcontext() if self._holds_write else self.server.write_window()

    def _read_context(self):
        """The read-side bracket: a pinned published snapshot, no lock."""
        if self._holds_write:
            return nullcontext()
        return self.system.db.pinned(self.server.mvcc_store.pin())

    def _bracket(self, writes: bool):
        """The write window for a request that writes, else a pin."""
        return self._write_window() if writes else self._read_context()

    def _query_writes(self, text: str) -> bool:
        try:
            return self.system.query_writes(parse_query(text))
        except GlueNailError:
            return False  # the REPL prints the error when it runs the line

    def _repl_is_write(self, line: str) -> bool:
        stripped = line.strip()
        if not stripped:
            return False
        if self._repl is not None and self._repl._pending:
            return True  # mid-definition: resolves to a load
        if stripped.startswith("."):
            command, _, arg = stripped.partition(" ")
            if command in _QUERY_DOT:
                return bool(arg.strip()) and self._query_writes(arg)
            return command not in _READONLY_DOT
        if stripped.endswith("?"):
            return self._query_writes(stripped)
        return True

    # -------------------------------------------------------------- #
    # dispatch
    # -------------------------------------------------------------- #

    def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        request_id = request.get("id")
        handler = getattr(self, f"op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return error_response(f"unknown op {op!r}", request_id, kind="protocol")
        try:
            fields = handler(request)
        except ProtocolError as exc:
            return error_response(str(exc), request_id, kind="protocol")
        except GlueNailError as exc:
            return error_response(str(exc), request_id, kind=type(exc).__name__)
        except Exception as exc:  # noqa: BLE001 - the server must not die
            return error_response(f"{type(exc).__name__}: {exc}", request_id,
                                  kind="internal")
        return ok_response(request_id, **fields)

    # -------------------------------------------------------------- #
    # read ops
    # -------------------------------------------------------------- #

    def op_ping(self, request: dict) -> dict:
        return {"pong": True, "session": self.name}

    def op_query(self, request: dict) -> dict:
        text = request_field(request, "q", str, "")
        magic = request_field(request, "magic", bool, False)
        entry = self.system.query_magic if magic else self.system.query
        subgoal = parse_query(text)
        with self._bracket(self.system.query_writes(subgoal)):
            result = entry(text, subgoal)
        payload = rows_payload(result)
        if result.trace:
            payload["trace"] = [event.to_dict() for event in result.trace]
        return payload

    def op_rows(self, request: dict) -> dict:
        name = request_field(request, "name", str, "")
        arity = request_field(request, "arity", int, 0)
        with self._read_context():
            result = self.system.rows(name, arity)
        return rows_payload(result)

    def op_rels(self, request: dict) -> dict:
        db = self.system.db  # resolves through the pinned snapshot, if any
        with self._read_context():
            catalog = [
                {"name": str(name), "arity": arity,
                 "rows": len(db.get(name, arity))}
                for name, arity in db.sorted_keys()
            ]
        return {"relations": catalog}

    def op_stats(self, request: dict) -> dict:
        counters = self.system.counters
        session_counters = counters.snapshot()
        payload = {
            "session": self.name,
            "counters": {k: v for k, v in session_counters.items() if v},
            "lock": self.server.lock.stats,
            "sessions_started": self.server.sessions_started,
        }
        aggregate = getattr(counters, "aggregate", None)
        if aggregate is not None:
            payload["server_counters"] = {
                k: v for k, v in aggregate().snapshot().items() if v
            }
        if self.system._compiled is not None:
            # Only meaningful once this session has compiled rules; the
            # engine (and its stratum caches) are per-session state.
            with self._read_context():
                payload["idb_cache"] = self.system.idb_cache_info()
        payload["mvcc"] = self.server.mvcc_store.stats()
        if self.server.store is not None:
            payload["wal_commits"] = self.server.store.wal.commits
            payload["wal_fsyncs"] = self.server.store.wal.fsyncs
        payload["subscriptions"] = self.server.subscriptions.stats()
        payload["gc"] = gc_stats()
        # Constant: bench/workloads.py connect() reads ["parallel"]["workers"].
        payload["parallel"] = {"mode": "serial", "workers": 1}
        return payload

    def op_trace(self, request: dict) -> dict:
        if request_field(request, "on", bool, True):
            self.system.enable_tracing(local=True)
            return {"tracing": True}
        self.system.disable_tracing()
        return {"tracing": False}

    def op_close(self, request: dict) -> dict:
        self.closed = True
        return {"closed": True}

    # -------------------------------------------------------------- #
    # write ops
    # -------------------------------------------------------------- #

    def op_facts(self, request: dict) -> dict:
        name = request_field(request, "name", str, "")
        rows = request_rows(request, "rows", [])
        with self._write_window():
            inserted = self.system.facts(name, rows)
        return {"inserted": inserted}

    def op_load(self, request: dict) -> dict:
        source = request_field(request, "source", str, "")
        with self._write_window():
            self.system.load(source)
            self.system.compile()
        return {"loaded": True}

    def op_call(self, request: dict) -> dict:
        name = request_field(request, "name", str, "")
        inputs = request_rows(request, "inputs", [[]])
        module = request_field(request, "module", str, None)
        arity = request_field(request, "arity", int, None)
        proc = self.system.procedure(name, module, arity)
        with self._bracket(proc.writes):
            result = self.system.call(name, inputs, module=module, arity=arity)
        return rows_payload(result)

    def op_checkpoint(self, request: dict) -> dict:
        with self._write_window():
            count = self.system.checkpoint()
        return {"checkpointed": count}

    # -------------------------------------------------------------- #
    # subscriptions: push framed notifications over this connection
    # -------------------------------------------------------------- #

    def op_subscribe(self, request: dict) -> dict:
        name = request_field(request, "name", str, "")
        arity = request_field(request, "arity", int, 0)
        pattern = request_field(request, "pattern", list, None)
        capacity = request_field(request, "capacity", int, 1024)
        snapshot = request_field(request, "snapshot", bool, False)
        source = request_field(request, "source", str, None)
        # Under the write lock: registration must not interleave with a
        # commit flush, and `source` mutates the shared subscription
        # system's program (IDB watches evaluate there, not on this
        # session's private rule set).
        with self._write_window():
            if source:
                self.server.sub_system.load(source)
                self.server.sub_system.compile()
            sub = self.server.subscriptions.subscribe(
                name,
                arity,
                pattern=pattern,
                capacity=capacity,
                owner=self,
                snapshot=snapshot,
            )
            self._subs[sub.id] = sub
            sub.notify_hook = self._push_event.set
        self._ensure_pusher()
        fields = {"sub": sub.id, "predicate": sub.predicate, "kind": sub.kind}
        if snapshot:
            fields["snapshot"] = columns_payload(sub.snapshot_rows or [])
        return fields

    def op_unsubscribe(self, request: dict) -> dict:
        sub_id = request_field(request, "sub", int, 0)
        sub = self._subs.pop(sub_id, None)
        if sub is None:
            raise GlueNailError(f"no subscription {sub_id} in this session")
        self.server.subscriptions.unsubscribe(sub_id)
        return {"unsubscribed": sub_id}

    # -------------------------------------------------------------- #
    # the push path: one pusher thread per session with subscriptions
    # -------------------------------------------------------------- #

    def attach_transport(self, wfile) -> None:
        self._wfile = wfile

    def send_response(self, response: dict) -> None:
        """Write one frame; serialized against the pusher thread so
        notification and response lines never interleave mid-frame."""
        data = (encode(response) + "\n").encode("utf-8")
        with self._write_lock:
            self._wfile.write(data)
            self._wfile.flush()

    def _ensure_pusher(self) -> None:
        if self._pusher is None and self._wfile is not None:
            self._pusher = threading.Thread(
                target=self._push_loop, name=f"{self.name}-pusher", daemon=True
            )
            self._pusher.start()

    def _push_loop(self) -> None:
        # Commits wake us via notify_hook; the timeout is only a backstop
        # so teardown (closed=True) is noticed even without traffic.
        while not self.closed:
            self._push_event.wait(timeout=0.2)
            self._push_event.clear()
            for sub in list(self._subs.values()):
                for note in sub.drain():
                    try:
                        self.send_response(notification_frame(note))
                    except (ConnectionError, OSError, ValueError):
                        self.closed = True
                        return

    # -------------------------------------------------------------- #
    # transactions: the session keeps the write lock for their duration
    # -------------------------------------------------------------- #

    def op_begin(self, request: dict) -> dict:
        if self._holds_write:
            raise GlueNailError("this session already holds a transaction")
        self.server.open_window()
        try:
            self.system.begin()
        except BaseException:
            self.server.close_window()
            raise
        self._holds_write = True
        return {"transaction": "open"}

    def op_commit(self, request: dict) -> dict:
        if not self._holds_write:
            raise GlueNailError("no transaction is active in this session")
        try:
            self.system.commit()
        finally:
            self._holds_write = False
            self.server.close_window()
        return {"transaction": "committed"}

    def op_rollback(self, request: dict) -> dict:
        if not self._holds_write:
            raise GlueNailError("no transaction is active in this session")
        try:
            self.system.rollback()
        finally:
            self._holds_write = False
            self.server.close_window()
        return {"transaction": "rolled back"}

    # -------------------------------------------------------------- #
    # the REPL proxy: `gluenail connect` feeds raw REPL lines here
    # -------------------------------------------------------------- #

    def _ensure_repl(self):
        if self._repl is None:
            from repro.core.repl import Repl

            self._repl_out = StringIO()
            self.system.out = self._repl_out
            self._repl = Repl(system=self.system, out=self._repl_out)
        return self._repl

    def op_repl(self, request: dict) -> dict:
        line = request_field(request, "line", str, "")
        stripped = line.strip()
        repl = self._ensure_repl()
        command = stripped.split(None, 1)[0] if stripped else ""
        if command in _FILE_DOT:
            raise GlueNailError(f"{command} is not available over a connection")
        # Transaction boundaries must go through the session's lock
        # handover, not straight into the system.
        if stripped in (".begin", ".commit", ".rollback"):
            fields = getattr(self, f"op_{stripped[1:]}")(request)
            return {"out": f"transaction {fields['transaction']}\n", "done": False}
        with self._bracket(self._repl_is_write(line)):
            repl.feed(line if line.endswith("\n") else line + "\n")
        out = self._repl_out.getvalue()
        self._repl_out.seek(0)
        self._repl_out.truncate(0)
        if repl.done:
            self.closed = True
        return {"out": out, "done": repl.done}

    # -------------------------------------------------------------- #

    def release(self) -> None:
        """Connection teardown: abort any open transaction, free the lock,
        and remove this session's subscriptions and REPL watches (no
        leaked queues or callbacks)."""
        if self._holds_write:
            try:
                if self.system.txn is not None and self.system.txn.in_transaction:
                    self.system.rollback()
            finally:
                self._holds_write = False
                self.server.close_window()
        subscriptions = self.server.subscriptions
        if self._subs:
            subscriptions.unsubscribe_owner(self)
            self._subs.clear()
        if self._repl is not None:
            for sub_id in self._repl._watches:
                subscriptions.unsubscribe(sub_id)
        self.system.disable_tracing()
        self.system.close()  # frees the engine's rows; the store is the server's
        self.server.db.tracer.set_session(None)
        retire = getattr(self.server.db.counters, "retire", None)
        if retire is not None:
            retire()  # the connection thread is done counting
        self.closed = True
        self._push_event.set()  # wake the pusher so it can exit


class _Handler(socketserver.StreamRequestHandler):
    # A notification frame written right behind a reply would otherwise
    # wait for the client's delayed ACK (~40 ms) under Nagle's algorithm.
    disable_nagle_algorithm = True

    def handle(self):  # pragma: no cover - exercised via live-server tests
        server: GlueNailServer = self.server.core
        session = server._new_session()
        session.attach_transport(self.wfile)
        try:
            while not session.closed:
                raw = self.rfile.readline()
                if not raw:
                    break
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                try:
                    request = decode(line)
                except ProtocolError as exc:
                    response = error_response(str(exc), kind="protocol")
                else:
                    response = session.dispatch(request)
                session.send_response(response)
        except (ConnectionError, BrokenPipeError, OSError):
            pass
        finally:
            session.release()


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    core: "GlueNailServer"


class GlueNailServer:
    """The multi-client query service over one (optionally durable) EDB.

    ``db_dir`` opens a :class:`~repro.txn.store.DurableStore` under that
    directory (with crash recovery); without it the EDB is in-memory but
    still transactional.  ``program`` is Glue-Nail source preloaded into
    every session.  ``port=0`` binds an ephemeral port (see ``.port``).

    Read-only requests are served from immutable published snapshots (see
    :mod:`repro.mvcc`): readers never touch the RWLock, which serializes
    writers only; writers bracket their mutations in a *write window* and
    publish atomically on release.
    """

    # Builds every session's system and the subscription host;
    # repro.baselines.reference swaps in a baseline configuration.
    system_factory = GlueNailSystem

    def __init__(
        self,
        db_dir: Optional[str] = None,
        program: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        sync: bool = True,
        db: Optional[Database] = None,
    ):
        if db is None:
            db = Database(counters=ThreadLocalCounters())
        self.db = db
        if db_dir is not None:
            from repro.txn.store import DurableStore

            self.store = DurableStore(db_dir, db=self.db, sync=sync)
        else:
            self.store = None
            self.db.transactions()  # in-memory, but still transactional
        self.lock = RWLock()
        self.base_program = program or ""
        # One shared system hosts the subscriptions: IDB watches evaluate
        # on it (sessions' private rule sets never leak into each other),
        # and its lazy ``subscriptions`` property is the same manager a
        # base-program ``watch`` declaration registers on -- one manager,
        # never two.
        self.sub_system = self.system_factory(db=self.db)
        self.sub_system.store = self.store
        if self.base_program:
            self.sub_system.load(self.base_program)
            try:
                self.sub_system.compile()  # activates `watch` declarations
            except GlueNailError:
                pass  # sessions surface program errors on first use
        self.subscriptions = self.sub_system.subscriptions
        # The MVCC version store: one per server, shared by every session's
        # SnapshotRouter so all readers pin the same published versions.
        # Created after recovery and the base program's compile, so its
        # first snapshot is the state sessions start from.
        self.mvcc_store = VersionStore(self.db)
        self.sessions_started = 0
        self._session_lock = threading.Lock()
        self._session_ids = itertools.count(1)
        self._thread: Optional[threading.Thread] = None
        self._tcp = _ThreadingServer((host, port), _Handler)
        self._tcp.core = self
        self.host, self.port = self._tcp.server_address[:2]

    def _new_session(self) -> Session:
        with self._session_lock:
            session_id = next(self._session_ids)
            self.sessions_started += 1
        return Session(self, session_id)

    def open_window(self) -> None:
        """Take the write lock and open an MVCC write window."""
        self.lock.acquire_write()
        self.mvcc_store.begin_window()

    def close_window(self) -> None:
        """Publish the window's result, then release the write lock -- so
        a reader can never pin a half-applied window."""
        self.mvcc_store.publish()
        self.lock.release_write()

    @contextmanager
    def write_window(self):
        """The writer bracket: mutations inside run against the live
        relations (copy-on-write keeps pinned snapshots unaffected) and
        are published as the new read snapshot on exit."""
        self.open_window()
        try:
            yield
        finally:
            self.close_window()

    # -------------------------------------------------------------- #

    def serve_forever(self) -> None:
        """Block serving requests (the CLI entry point)."""
        self._tcp.serve_forever()

    def start(self) -> "GlueNailServer":
        """Serve on a background thread; returns once the socket is live."""
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, name="gluenail-server", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving, close the socket, and release the durable store."""
        if self._thread is not None:  # shutdown() waits for a serving loop
            self._tcp.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._tcp.server_close()
        if self.store is not None:
            self.store.close()
            self.store = None

    def __enter__(self) -> "GlueNailServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
