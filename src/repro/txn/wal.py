"""The write-ahead log: committed EDB mutations, one line per operation.

The paper's back end persists the EDB as a full dump between runs; the WAL
upgrades that to incremental durability.  Only *committed* work reaches the
log (a redo log -- rollbacks never touch disk), and the line syntax reuses
the dump format's fact syntax, so a WAL is human-readable and greppable:

.. code-block:: text

    % Glue-Nail WAL (format 1)
    % txn 1
    + edge(1, 2).
    + edge(2, 3).
    % commit 1
    % txn 2
    - edge(1, 2).
    % rel marker / 0
    % drop scratch / 2
    % commit 2

Operation lines: ``+ fact.`` insert, ``- fact.`` delete, ``% rel name /
arity`` catalog declare, ``% drop name / arity`` catalog drop.  A commit is
the batch between a ``% txn N`` and its matching ``% commit N`` marker;
:func:`replay_wal` applies only complete batches, so a crash mid-append
(torn tail, missing commit marker) loses at most the transaction that was
still committing -- exactly the atomicity contract.

Replay is idempotent (re-inserting an existing tuple, re-deleting an absent
one, re-declaring and re-dropping are all no-ops), which lets recovery
tolerate a crash between the checkpoint dump and the WAL truncation.
"""

from __future__ import annotations

import os
import re
import threading
from typing import Iterator, List, Optional, Tuple

from repro.storage.database import Database
from repro.storage.persist import Op, apply_ops, fact_to_line, fsync_directory
from repro.terms.printer import term_to_str

WAL_HEADER = "% Glue-Nail WAL (format 1)"

_TXN_RE = re.compile(r"%\s*txn\s+(\d+)\s*\Z")
_COMMIT_RE = re.compile(r"%\s*commit\s+(\d+)\s*\Z")
_DROP_RE = re.compile(r"%\s*drop\s+(.+?)\s*/\s*(\d+)\s*\Z")


def format_op(op: Op) -> str:
    """Render one journal op as its WAL line."""
    kind = op[0]
    if kind == "insert":
        return "+ " + fact_to_line(op[1], op[2])
    if kind == "delete":
        return "- " + fact_to_line(op[1], op[2])
    if kind == "declare":
        return f"% rel {term_to_str(op[1])} / {op[2]}"
    if kind == "drop":
        return f"% drop {term_to_str(op[1])} / {op[2]}"
    raise ValueError(f"unknown journal op {kind!r}")


class WriteAheadLog:
    """An append-only log of committed transactions.

    ``sync=True`` (the default) fsyncs after every commit batch -- the
    durability point; ``sync=False`` trades that for speed (data still
    survives a process crash, but not an OS crash).

    Commits are serial: each one writes and fsyncs its batch under the
    log's mutex, so batches never interleave and tids never race, whatever
    the caller's own locking.

    Transaction ids are monotone: reopening an existing log continues past
    the highest tid already on disk instead of restarting at 1, so a tid
    stays a unique identifier for tooling across restarts.
    """

    def __init__(self, path: str, sync: bool = True):
        self.path = os.path.abspath(path)
        self.sync = sync
        directory = os.path.dirname(self.path)
        os.makedirs(directory, exist_ok=True)
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        self._next_tid = 1 if fresh else _last_tid(self.path) + 1
        self._lock = threading.Lock()
        # Unbuffered: a failed append leaves no bytes behind in Python.
        self._handle = open(self.path, "ab", buffering=0)
        self.commits = 0
        self.fsyncs = 0
        if fresh:
            self._handle.write((WAL_HEADER + "\n").encode("utf-8"))
            self._sync()

    def _sync(self) -> None:
        if self.sync:
            os.fsync(self._handle.fileno())
            self.fsyncs += 1

    def append_commit(self, ops: List[Op]) -> Optional[int]:
        """Durably append one committed batch; returns its txn id.

        Returns once the batch is on disk (``sync=True``).  If the write
        or the fsync fails, the log is cut back to where the batch began
        before the error propagates, so replay never applies a commit its
        caller saw fail.
        """
        if not ops:
            return None
        with self._lock:
            if self._handle is None:
                raise ValueError("write-ahead log is closed")
            tid = self._next_tid
            self._next_tid += 1
            lines = [f"% txn {tid}"]
            lines.extend(format_op(op) for op in ops)
            lines.append(f"% commit {tid}")
            data = ("\n".join(lines) + "\n").encode("utf-8")
            start = self._handle.seek(0, os.SEEK_END)
            try:
                if self._handle.write(data) != len(data):
                    raise OSError("short write to the write-ahead log")
                self._sync()
            except BaseException:
                self._handle.truncate(start)
                raise
            self.commits += 1
        return tid

    def reset(self) -> None:
        """Truncate to an empty log (after a checkpoint), atomically.

        Tids keep counting up -- a post-checkpoint batch never reuses an
        id from the compacted-away prefix.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(WAL_HEADER + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            fsync_directory(os.path.dirname(self.path))
            self._handle = open(self.path, "ab", buffering=0)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _last_tid(path: str) -> int:
    """The highest transaction id recorded in an existing log (0 if none)."""
    last = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for raw in handle:
                marker = _TXN_RE.match(raw.strip()) or _COMMIT_RE.match(raw.strip())
                if marker:
                    last = max(last, int(marker.group(1)))
    except OSError:
        return 0
    return last


def _parse_op(line: str, scan) -> Optional[Op]:
    """Parse one WAL op line with fact scanner ``scan``; None for
    unrecognized/comment lines.

    Raises on a syntactically broken ``+``/``-`` line (a torn tail), which
    the replay loop treats as "abandon this batch".
    """
    from repro.lang.parser import parse_directive_rel, parse_term

    if line.startswith("+ ") or line.startswith("- "):
        name, row = scan(line[2:].strip())
        return ("insert" if line[0] == "+" else "delete", name, row)
    if line.startswith("%"):
        dropped = _DROP_RE.match(line.strip())
        if dropped:
            return ("drop", parse_term(dropped.group(1)), int(dropped.group(2)))
        declared = parse_directive_rel(line)
        if declared is not None:
            return ("declare", declared[0], declared[1])
    return None


def replay_wal(path: str, db: Database) -> Tuple[int, int]:
    """Replay every *complete* committed batch of ``path`` into ``db``.

    Returns ``(transactions_applied, ops_applied)``.  Incomplete batches --
    a ``% txn`` with no matching ``% commit``, or a torn final line -- are
    skipped silently: they are precisely the uncommitted work a crash is
    allowed to lose.  Any journal attached to ``db`` is suspended for the
    duration so recovery does not re-log itself.

    Fact lines are read by one :class:`~repro.lang.facts.FactScanner`, and
    the committed ops of the whole log go through
    :func:`~repro.storage.persist.apply_ops`, so a
    run of inserts (or deletes) costs one bulk call per relation.
    """
    from repro.lang.facts import FactScanner

    scan = FactScanner().scan
    txns = ops_applied = 0

    def committed_ops(handle) -> Iterator[Op]:
        nonlocal txns, ops_applied
        pending_tid: Optional[int] = None
        pending_ops: List[Op] = []
        for raw in handle:
            line = raw.strip()
            if not line or line == WAL_HEADER:
                continue
            started = _TXN_RE.match(line)
            if started:
                pending_tid = int(started.group(1))
                pending_ops = []
                continue
            committed = _COMMIT_RE.match(line)
            if committed:
                if pending_tid is not None and int(committed.group(1)) == pending_tid:
                    txns += 1
                    ops_applied += len(pending_ops)
                    yield from pending_ops
                pending_tid = None
                pending_ops = []
                continue
            if pending_tid is None:
                continue  # op outside any batch: stale tail, skip
            try:
                op = _parse_op(line, scan)
            except Exception:
                # A torn line can only be the crash-interrupted tail; its
                # batch has no commit marker, so drop it.
                pending_tid = None
                pending_ops = []
                continue
            if op is not None:
                pending_ops.append(op)

    journal = db.journal
    if journal is not None:
        db.attach_journal(None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            apply_ops(db, committed_ops(handle))
    finally:
        if journal is not None:
            db.attach_journal(journal)
    return txns, ops_applied
