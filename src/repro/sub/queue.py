"""Delivery primitives for push-based subscriptions.

A :class:`Notification` is one framed unit of change for one
subscription: the predicate, the operation (``insert``/``delete``/
``resync``), the affected rows (as Term tuples), the id of the committed
transaction that produced them, and a per-subscription monotone sequence
number.

A :class:`DeliveryQueue` is the bounded mailbox between the committing
writer and a (possibly slow) consumer.  The writer never blocks: when the
queue is full, everything buffered is dropped and replaced by a single
``resync`` marker telling the consumer to re-read the predicate's current
extension before trusting further deltas.  Sequence numbers keep
advancing across the drop, so a consumer can detect the gap.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, List, Optional, Tuple

from repro.record import Record
from repro.terms.term import Term

Row = Tuple[Term, ...]

#: Notification operations.
OP_INSERT = "insert"
OP_DELETE = "delete"
OP_RESYNC = "resync"


class Notification(Record):
    """One unit of pushed change for one subscription."""

    __slots__ = ("sub_id", "seq", "predicate", "op", "rows", "txn_id", "version", "dropped")

    def __init__(self, sub_id: int, seq: int, predicate: str, op: str, rows: Tuple[Row, ...] = (),
                 txn_id: int = 0, version: int = 0, dropped: int = 0) -> None:
        object.__setattr__(self, "sub_id", sub_id)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "predicate", predicate)  # "name/arity"
        object.__setattr__(self, "op", op)  # OP_INSERT | OP_DELETE | OP_RESYNC
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "txn_id", txn_id)
        #: The database version the producing commit published (see
        #: repro.mvcc): a subscriber and a snapshot reader pinned at the same
        #: version agree exactly on what this notification's deltas apply to.
        object.__setattr__(self, "version", version)
        #: For resync markers produced by queue overflow: how many buffered
        #: notifications were discarded to make room.
        object.__setattr__(self, "dropped", dropped)

    def payload(self) -> dict:
        """The JSON-able wire shape, rows left out (the server adds them as
        columns through :func:`repro.server.protocol.notification_frame`)."""
        return {
            "sub": self.sub_id,
            "seq": self.seq,
            "predicate": self.predicate,
            "op": self.op,
            "txn": self.txn_id,
            "version": self.version,
            "dropped": self.dropped,
        }


class DeliveryQueue:
    """Bounded, thread-safe notification mailbox with drop-with-resync.

    ``push`` is what the committing writer calls; it never blocks.  On
    overflow the whole backlog is replaced with one resync marker built by
    the ``make_resync(dropped_count)`` callback (the owning subscription
    supplies it so the marker gets the next sequence number).
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = max(1, int(capacity))
        self._items: deque = deque()
        self._lock = threading.Lock()
        self.dropped = 0  # notifications discarded by overflow, lifetime

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def push(
        self,
        item: Notification,
        make_resync: Callable[[int], Notification],
    ) -> bool:
        """Enqueue ``item``; on overflow swap the backlog for a resync
        marker.  Returns False when the item was dropped."""
        with self._lock:
            if len(self._items) >= self.capacity:
                lost = len(self._items) + 1  # the backlog plus this item
                self._items.clear()
                self.dropped += lost
                self._items.append(make_resync(lost))
                return False
            self._items.append(item)
            return True

    def pop(self) -> Optional[Notification]:
        with self._lock:
            if self._items:
                return self._items.popleft()
            return None

    def drain(self) -> List[Notification]:
        """Take everything currently buffered, oldest first."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            return items
