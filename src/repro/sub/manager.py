"""Push-based subscriptions over the incremental-maintenance delta pipeline.

The :class:`SubscriptionManager` turns the deltas the system already
computes into a push API:

* **EDB predicates** -- committed mutation batches arrive from the
  :class:`~repro.txn.manager.TransactionManager` (the manager registers as
  a commit observer); each batch is netted per predicate (a row inserted
  and deleted inside one transaction cancels out, exactly like
  ``ChangeLog.net_since``) and delivered as insert/delete notifications.

* **IDB predicates** -- the manager registers as a delta listener on the
  NAIL! engine.  When a commit touches a watched predicate's support, the
  engine either *repairs* the stratum (exact per-predicate insert deltas
  flow straight through the repair's ``new_rows``, returned by
  ``seminaive_eval`` run from a seed) or falls back
  to a scoped rebuild.  On rebuild the manager diffs the predicate's new
  extension against its last delivered snapshot -- still exact, both
  inserts and deletes -- and only when that diff would exceed
  ``MAX_DIFF_ROWS`` does it emit an explicit ``resync`` event instead.
  Subscribers therefore never silently miss a change.

* **Transaction consistency** -- delivery happens only from
  ``on_commit``: mutations inside an open transaction buffer in the
  transaction's redo batch and reach subscribers in one flush at commit;
  a rollback delivers nothing (the transaction manager never notifies,
  and any exact repair deltas staged by mid-transaction queries are
  discarded when the engine reports the compensating rebuild).

* **Active rules** -- a Glue ``watch`` declaration becomes a subscription
  whose sink invokes a Glue procedure set-at-a-time with ``(op, row...)``
  tuples; mutations made by the handler cascade as fresh commits, drained
  iteratively with a bounded depth.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.scope import pred_skeleton
from repro.errors import GlueRuntimeError
from repro.sub.queue import (
    OP_DELETE,
    OP_INSERT,
    OP_RESYNC,
    DeliveryQueue,
    Notification,
    Row,
)
from repro.terms.matching import match_tuple
from repro.terms.term import Atom, Term, Var, mk, sort_key


def _row_key(row: Row) -> tuple:
    return tuple(sort_key(term) for term in row)

PredKey = Tuple[Term, int]

#: How many handler-triggered commit batches one flush may chain through
#: before the manager declares the active rules divergent.
MAX_CASCADE = 25

#: The largest rebuild diff (old plus new extension rows) delivered as
#: deltas; a larger one reaches subscribers as one ``resync`` event.
MAX_DIFF_ROWS = 100_000


def _lift_pattern(pattern: Sequence[object], arity: int) -> Tuple[Term, ...]:
    """Lift a user-facing pattern (Python values; ``None`` = wildcard) to a
    Term tuple usable with :func:`match_tuple`."""
    if len(pattern) != arity:
        raise GlueRuntimeError(
            f"pattern has {len(pattern)} positions, predicate arity is {arity}"
        )
    lifted: List[Term] = []
    for index, value in enumerate(pattern):
        if value is None:
            lifted.append(Var(f"_W{index}"))
        elif isinstance(value, Term):
            lifted.append(value)
        else:
            lifted.append(mk(value))
    return tuple(lifted)


class Subscription:
    """One registered interest in a predicate's committed deltas.

    Exactly one delivery mode is active: a ``callback`` (invoked on the
    committing thread, transaction already complete) or a bounded
    :class:`DeliveryQueue` the owner drains (the server's pusher thread,
    or :meth:`poll`/:meth:`drain` for embedded use).
    """

    def __init__(
        self,
        sub_id: int,
        name: Term,
        arity: int,
        kind: str,
        pattern: Optional[Tuple[Term, ...]] = None,
        callback=None,
        capacity: int = 1024,
        owner: object = None,
        manager: Optional["SubscriptionManager"] = None,
    ):
        self.id = sub_id
        self.name = name
        self.arity = arity
        self.kind = kind  # "edb" | "idb"
        self.predicate = f"{name}/{arity}"
        self.pattern = pattern
        self.callback = callback
        self.queue: Optional[DeliveryQueue] = (
            None if callback is not None else DeliveryQueue(capacity)
        )
        self.owner = owner
        self.active = True
        self.last_error: Optional[BaseException] = None
        #: Rows at registration time, when requested with ``snapshot=True``.
        self.snapshot_rows: Optional[List[Row]] = None
        #: Called after each queue push (server wakes its pusher here).
        self.notify_hook = None
        self._manager = manager
        self._seq_lock = threading.Lock()
        self._next_seq = 0
        self.resyncs = 0  # resync notifications this subscription received
        #: Database version of the last delivered commit (stamped on every
        #: outgoing notification; see repro.mvcc).
        self.version = 0

    @property
    def key(self) -> PredKey:
        return (self.name, self.arity)

    def _seq(self) -> int:
        with self._seq_lock:
            self._next_seq += 1
            return self._next_seq

    def _matching(self, rows: Sequence[Row]) -> List[Row]:
        if self.pattern is None:
            return list(rows)
        return [row for row in rows if match_tuple(self.pattern, row) is not None]

    def _make_resync(self, dropped: int) -> Notification:
        self.resyncs += 1
        return Notification(
            sub_id=self.id,
            seq=self._seq(),
            predicate=self.predicate,
            op=OP_RESYNC,
            txn_id=0,
            version=self.version,
            dropped=dropped,
        )

    def emit(
        self, op: str, rows: Sequence[Row], txn_id: int,
        version: Optional[int] = None,
    ) -> Optional[Notification]:
        """Filter, frame and deliver one notification; returns it, or None
        when the pattern filtered everything out."""
        if not self.active:
            return None
        if version is not None:
            self.version = version
        if op == OP_RESYNC:
            matched: Tuple[Row, ...] = ()
            self.resyncs += 1
        else:
            matched = tuple(self._matching(rows))
            if not matched:
                return None
        note = Notification(
            sub_id=self.id,
            seq=self._seq(),
            predicate=self.predicate,
            op=op,
            rows=matched,
            txn_id=txn_id,
            version=self.version,
        )
        manager = self._manager
        if manager is not None:  # emit runs under the manager's lock
            manager.db.counters.notifications_pushed += 1
            manager.notifications_pushed += 1
        if self.callback is not None:
            try:
                self.callback(note)
            except BaseException as exc:  # keep delivering to other subscribers
                self.last_error = exc
        else:
            self.queue.push(note, self._make_resync)
            if self.notify_hook is not None:
                self.notify_hook()
        return note

    # Embedded queue-mode convenience ---------------------------------- #

    def poll(self) -> Optional[Notification]:
        """Next buffered notification, or None (queue mode only)."""
        return self.queue.pop() if self.queue is not None else None

    def drain(self) -> List[Notification]:
        """All buffered notifications, oldest first (queue mode only)."""
        return self.queue.drain() if self.queue is not None else []


class SubscriptionManager:
    """Registers subscriptions and routes committed deltas to them.

    Serialized by design: commits are already single-writer (the server's
    write lock; the embedded single-user case), and an internal re-entrant
    lock covers registration against concurrent flushes.
    """

    def __init__(self, system):
        self.system = system
        self.db = system.db
        self._transactions = system.enable_transactions()
        self._transactions.add_observer(self)
        self._lock = threading.RLock()
        self._subs: Dict[int, Subscription] = {}
        self._by_key: Dict[PredKey, List[Subscription]] = {}
        self._next_id = 1
        self._engine = None  # the engine the delta listener is attached to
        # IDB delivery state: last-delivered extension per watched key,
        # exact repair deltas staged since the last flush, and keys whose
        # stratum was rebuilt (snapshot diff needed).
        self._snapshots: Dict[PredKey, Set[Row]] = {}
        self._staged: Dict[PredKey, List[Row]] = {}
        self._rebuilt: Set[PredKey] = set()
        # Re-entrancy: active-rule handlers mutate the database, which
        # commits, which calls back into on_commit on the same thread.
        self._dispatching = False
        self._pending: List[Tuple[int, list]] = []
        # watch declarations registered from the compiled program, keyed
        # by their subscription ids so a recompile can replace them.
        self._watch_sub_ids: List[int] = []
        self.resyncs = 0  # resync events delivered to subscribers, total
        # Notifications delivered by every thread.  The database counter
        # of the same name is per-thread under the server's
        # ThreadLocalCounters, so only the committing connection sees it.
        self.notifications_pushed = 0

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #

    @property
    def subscriptions_active(self) -> int:
        with self._lock:
            return len(self._subs)

    def stats(self) -> dict:
        with self._lock:
            subs = list(self._subs.values())
        return {
            "subscriptions_active": len(subs),
            "notifications_pushed": self.notifications_pushed,
            "resyncs": self.resyncs,
            "queued": sum(len(s.queue) for s in subs if s.queue is not None),
            "dropped": sum(s.queue.dropped for s in subs if s.queue is not None),
        }

    def _bind_engine(self):
        """(Re)attach the delta listener to the system's current engine.

        The facade rebuilds its engine whenever more source is loaded; on
        a rebind every watched IDB key is marked for a snapshot diff so
        nothing is missed across the swap.
        """
        engine = self.system.engine  # compiles on demand
        if engine is not self._engine:
            if self._engine is not None:
                self._engine.remove_delta_listener(self)
            engine.add_delta_listener(self)
            self._engine = engine
            with self._lock:
                self._staged.clear()
                for key in self._idb_keys():
                    self._rebuilt.add(key)
        return engine

    def _idb_keys(self) -> List[PredKey]:
        return [
            key
            for key, subs in self._by_key.items()
            if any(s.kind == "idb" for s in subs)
        ]

    def subscribe(
        self,
        name,
        arity: int,
        pattern: Optional[Sequence[object]] = None,
        callback=None,
        capacity: int = 1024,
        owner: object = None,
        snapshot: bool = False,
    ) -> Subscription:
        """Register interest in ``name/arity``.

        ``pattern`` optionally filters rows position by position (``None``
        positions are wildcards).  ``callback`` switches the subscription
        to synchronous delivery; otherwise notifications buffer in a
        bounded queue of ``capacity`` (overflow drops the backlog and
        leaves a ``resync`` marker -- the writer never blocks).
        ``snapshot=True`` captures the predicate's current rows into
        ``subscription.snapshot_rows``, atomically with registration, so a
        consumer can seed its replica without a race window.
        """
        name_term = name if isinstance(name, Term) else mk(name)
        lifted = None if pattern is None else _lift_pattern(pattern, arity)
        with self._lock:
            engine = self._bind_engine()
            skeleton = pred_skeleton(name_term, arity)
            kind = "idb" if engine.defines(skeleton) else "edb"
            if kind == "idb" and not engine.can_materialize(name_term, arity):
                raise GlueRuntimeError(
                    f"cannot subscribe to {name_term}/{arity}: the predicate "
                    "is not materializable (it needs demand bindings)"
                )
            sub = Subscription(
                self._next_id,
                name_term,
                arity,
                kind,
                pattern=lifted,
                callback=callback,
                capacity=capacity,
                owner=owner,
                manager=self,
            )
            self._next_id += 1
            self._subs[sub.id] = sub
            self._by_key.setdefault(sub.key, []).append(sub)
            if kind == "idb" and sub.key not in self._snapshots:
                relation = engine.materialize(name_term, arity)
                self._snapshots[sub.key] = set(relation.rows())
                self._staged.pop(sub.key, None)
                self._rebuilt.discard(sub.key)
            if snapshot:
                if kind == "idb":
                    sub.snapshot_rows = sorted(self._snapshots[sub.key], key=_row_key)
                else:
                    relation = self.db.get(name_term, arity)
                    sub.snapshot_rows = (
                        relation.sorted_rows() if relation is not None else []
                    )
            if self.db.tracer.enabled:
                self.db.tracer.event(
                    "subscription",
                    sub.predicate,
                    action="subscribe",
                    sub=sub.id,
                    kind=kind,
                )
        return sub

    def unsubscribe(self, sub_or_id) -> bool:
        """Deactivate and forget a subscription; True if it was live."""
        sub_id = sub_or_id.id if isinstance(sub_or_id, Subscription) else sub_or_id
        with self._lock:
            sub = self._subs.pop(sub_id, None)
            if sub is None:
                return False
            sub.active = False
            peers = self._by_key.get(sub.key)
            if peers is not None:
                peers = [s for s in peers if s.id != sub_id]
                if peers:
                    self._by_key[sub.key] = peers
                else:
                    del self._by_key[sub.key]
                    # Last subscriber on this key: drop the IDB bookkeeping.
                    self._snapshots.pop(sub.key, None)
                    self._staged.pop(sub.key, None)
                    self._rebuilt.discard(sub.key)
            if self.db.tracer.enabled:
                self.db.tracer.event(
                    "subscription", sub.predicate, action="unsubscribe", sub=sub_id
                )
            return True

    def unsubscribe_owner(self, owner: object) -> int:
        """Remove every subscription registered under ``owner`` (server
        session disconnect); returns how many were removed."""
        with self._lock:
            doomed = [s.id for s in self._subs.values() if s.owner is owner]
        for sub_id in doomed:
            self.unsubscribe(sub_id)
        return len(doomed)

    def close(self) -> None:
        """Detach from the transaction manager and the engine."""
        self._transactions.remove_observer(self)
        if self._engine is not None:
            self._engine.remove_delta_listener(self)
            self._engine = None

    # ------------------------------------------------------------------ #
    # watch declarations (Glue-level active rules)
    # ------------------------------------------------------------------ #

    def set_watch_rules(self, decls) -> None:
        """Install the program's ``watch`` declarations, replacing any from
        a previous compile.  Each becomes a callback subscription whose
        sink calls the named Glue procedure with ``(op, row...)`` tuples.
        """
        for sub_id in self._watch_sub_ids:
            self.unsubscribe(sub_id)
        self._watch_sub_ids = []
        for decl in decls:
            sub = self._register_watch(decl)
            self._watch_sub_ids.append(sub.id)

    def _register_watch(self, decl) -> Subscription:
        arity = len(decl.args)
        compiled = self.system.compile()
        # Resolve the handler now so a bad watch fails at load, not at the
        # first commit.  The handler sees (op, row...): bound arity + 1.
        candidates = sorted(
            {
                key[2]
                for key in compiled.procs
                if key[1] == decl.proc and (decl.module is None or key[0] == decl.module)
            }
        )
        if not candidates:
            where = f" in module {decl.module}" if decl.module else ""
            raise GlueRuntimeError(
                f"watch {decl.pred}/{arity}: no procedure named {decl.proc}{where}"
            )
        proc = None
        for cand in candidates:
            attempt = compiled.find_proc(decl.proc, cand, module=decl.module)
            if attempt.bound_arity == arity + 1:
                proc = attempt
                break
        if proc is None:
            raise GlueRuntimeError(
                f"watch {decl.pred}/{arity}: handler {decl.proc} must take "
                f"{arity + 1} bound arguments (op, row...)"
            )

        def run_handler(note: Notification) -> None:
            if note.op == OP_RESYNC:
                if self.db.tracer.enabled:
                    self.db.tracer.event(
                        "subscription", note.predicate, action="watch_resync"
                    )
                return
            op_atom = Atom(note.op)
            inputs = [(op_atom,) + row for row in note.rows]
            self.system.call(
                proc.name, inputs, module=proc.module, arity=proc.arity
            )

        # The head arguments double as the pattern filter: ground positions
        # must match, variables are wildcards.
        pattern = None if all(isinstance(a, Var) for a in decl.args) else decl.args
        return self.subscribe(
            decl.pred, arity, pattern=pattern, callback=run_handler, owner="watch"
        )

    # ------------------------------------------------------------------ #
    # engine delta-listener interface
    # ------------------------------------------------------------------ #

    def on_idb_delta(self, key: PredKey, rows: List[Row]) -> None:
        """Exact repair inserts from a seeded ``seminaive_eval`` (via the
        engine)."""
        with self._lock:
            if key in self._snapshots and key not in self._rebuilt:
                self._staged.setdefault(key, []).extend(rows)

    def on_idb_rebuild(self, skeletons) -> None:
        """A stratum was invalidated instead of repaired: exact deltas are
        lost for its predicates; fall back to snapshot diffing."""
        with self._lock:
            for key in list(self._snapshots):
                if pred_skeleton(key[0], key[1]) in skeletons:
                    self._rebuilt.add(key)
                    self._staged.pop(key, None)

    # ------------------------------------------------------------------ #
    # commit observer interface (TransactionManager)
    # ------------------------------------------------------------------ #

    def on_commit(self, txn_id: int, ops: list) -> None:
        """Flush one committed batch to subscribers.

        Runs on the committing thread, after the transaction state is torn
        down.  Active-rule handlers may commit further batches; those queue
        up and drain iteratively (bounded by :data:`MAX_CASCADE`).
        """
        with self._lock:
            if not self._subs:
                return
            if self._dispatching:
                self._pending.append((txn_id, ops))
                return
            self._dispatching = True
        try:
            batches = [(txn_id, ops)]
            rounds = 0
            while batches:
                rounds += 1
                if rounds > MAX_CASCADE:
                    raise GlueRuntimeError(
                        f"watch cascade exceeded {MAX_CASCADE} rounds; "
                        "active rules appear to feed themselves"
                    )
                tid, batch = batches.pop(0)
                with self._lock:
                    self._flush(tid, batch)
                with self._lock:
                    batches.extend(self._pending)
                    self._pending.clear()
        finally:
            with self._lock:
                self._dispatching = False
                self._pending.clear()

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #

    @staticmethod
    def _net_batch(ops: list):
        """Net a committed batch per predicate, ChangeLog-style: track the
        first and last op kind per row; insert-then-delete (and
        delete-then-insert) pairs cancel."""
        marks: Dict[PredKey, Dict[Row, List[str]]] = {}
        dropped: List[PredKey] = []
        for op in ops:
            kind = op[0]
            if kind == "drop":
                key = (op[1], op[2])
                if key not in dropped:
                    dropped.append(key)
                marks.pop(key, None)
                continue
            row = op[2]
            key = (op[1], len(row))
            per_row = marks.setdefault(key, {})
            mark = per_row.get(row)
            if mark is None:
                per_row[row] = [kind, kind]
            else:
                mark[1] = kind
        nets: Dict[PredKey, Tuple[List[Row], List[Row]]] = {}
        for key, per_row in marks.items():
            inserted: List[Row] = []
            deleted: List[Row] = []
            for row, (first, last) in per_row.items():
                if first == last:
                    (inserted if last == "insert" else deleted).append(row)
                # first != last: net zero either way.
            if inserted or deleted:
                nets[key] = (inserted, deleted)
        return nets, dropped

    def _flush(self, txn_id: int, ops: list) -> None:
        """Deliver one committed batch: EDB nets first, then IDB deltas.

        Every notification is stamped with the database version of the
        committed state (the version a write window publishes, since the
        flush runs after the batch's last mutation): a snapshot reader
        pinned at notification ``version`` sees exactly the rows these
        deltas produce.
        """
        version = self.db.version
        nets, dropped = self._net_batch(ops)
        for key in dropped:
            for sub in self._by_key.get(key, []):
                if sub.kind == "edb":
                    self.resyncs += 1
                    sub.emit(OP_RESYNC, (), txn_id, version=version)
        for key, (inserted, deleted) in nets.items():
            for sub in self._by_key.get(key, []):
                if sub.kind != "edb":
                    continue
                if inserted:
                    sub.emit(OP_INSERT, inserted, txn_id, version=version)
                if deleted:
                    sub.emit(OP_DELETE, deleted, txn_id, version=version)
        self._flush_idb(txn_id, version)

    def _flush_idb(self, txn_id: int, version: Optional[int] = None) -> None:
        idb_keys = self._idb_keys()
        if not idb_keys:
            return
        engine = self._bind_engine()
        # Materializing pulls the committed EDB state through the engine's
        # refresh: repairs stage exact deltas, rebuilds mark keys below.
        for key in idb_keys:
            engine.materialize(key[0], key[1])
        staged, rebuilt = self._staged, self._rebuilt
        self._staged, self._rebuilt = {}, set()
        for key in idb_keys:
            subs = [s for s in self._by_key.get(key, []) if s.kind == "idb"]
            if not subs:
                continue
            old = self._snapshots.get(key, set())
            if key in rebuilt:
                relation = engine.idb.get(key[0], key[1])
                new = set(relation.rows()) if relation is not None else set()
                if len(old) + len(new) > MAX_DIFF_ROWS:
                    self._snapshots[key] = new
                    for sub in subs:
                        self.resyncs += 1
                        sub.emit(OP_RESYNC, (), txn_id, version=version)
                    if self.db.tracer.enabled:
                        self.db.tracer.event(
                            "subscription",
                            f"{key[0]}/{key[1]}",
                            action="resync",
                            reason="diff_too_large",
                        )
                    continue
                inserted = sorted(new - old, key=_row_key)
                deleted = sorted(old - new, key=_row_key)
                self._snapshots[key] = new
            else:
                rows = staged.get(key)
                if not rows:
                    continue
                # Exact repair inserts; dedupe defensively against the
                # snapshot (repair deltas are genuinely-new by contract).
                fresh: List[Row] = []
                seen: Set[Row] = set()
                for row in rows:
                    if row not in old and row not in seen:
                        seen.add(row)
                        fresh.append(row)
                inserted, deleted = fresh, []
                old.update(fresh)
                self._snapshots[key] = old
            for sub in subs:
                if deleted:
                    sub.emit(OP_DELETE, deleted, txn_id, version=version)
                if inserted:
                    sub.emit(OP_INSERT, inserted, txn_id, version=version)
