"""EDB persistence: store relations on disk between runs (paper Section 10).

The format is the obvious one -- the facts themselves, one per line, in
Glue-Nail surface syntax -- so a saved database is also a loadable program
fragment and diffs cleanly under version control.  Arity-0 relations that
currently hold the empty tuple are written as ``name().``; declared-but-
empty relations are recorded with a ``% rel`` directive so the catalog
round-trips exactly.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Optional

from repro.storage.database import Database
from repro.terms.printer import term_to_str
from repro.terms.term import Term

_HEADER = "% Glue-Nail EDB dump (format 1)"

# Journal op tuples: ("insert", name, row) | ("delete", name, row)
#                  | ("declare", name, arity) | ("drop", name, arity)
Op = tuple


def fact_to_line(name: Term, row: tuple) -> str:
    """One fact in dump syntax: ``name(arg, ...).`` (``name().`` at arity 0)."""
    head = term_to_str(name)
    if not row:
        return f"{head}()."
    args = ", ".join(term_to_str(v) for v in row)
    return f"{head}({args})."


def fsync_directory(directory: str) -> None:
    """Flush a directory's entry table; best-effort on non-POSIX systems."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def save_database(db: Database, path: str) -> int:
    """Write every relation of ``db`` to ``path``; returns the fact count.

    The dump is written atomically: contents go to a temporary file in the
    same directory, which is fsynced and then renamed over the target, so a
    crash mid-dump can never leave a torn file behind -- readers see either
    the old complete dump or the new complete dump.
    """
    count = 0
    path = os.path.abspath(path)
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    handle = open(tmp_path, "w", encoding="utf-8")
    try:
        with handle:
            handle.write(_HEADER + "\n")
            for key in db.sorted_keys():
                name, arity = key
                relation = db.get(name, arity)
                handle.write(f"% rel {term_to_str(name)} / {arity}\n")
                for row in relation.sorted_rows():
                    handle.write(fact_to_line(name, row) + "\n")
                    count += 1
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return count


def load_database(path: str, db: Optional[Database] = None) -> Database:
    """Load a dump produced by :func:`save_database` into ``db`` (or a new one).

    Fact lines are read by one :class:`~repro.lang.facts.FactScanner` and
    applied by :func:`apply_ops`.  A dump's ``% rel`` line
    comes before its relation's rows, so each relation receives its rows as
    one batch once the whole file has been read, and a bad line raises
    before any row is inserted.  The load is one implicit transaction.
    """
    if db is None:
        db = Database()
    with db.atomically():
        apply_ops(db, _dump_ops(path))
    return db


def _dump_ops(path: str) -> Iterator[Op]:
    """The declare and insert ops of a dump, in file order."""
    from repro.lang.facts import FactScanner
    from repro.lang.parser import parse_directive_rel

    scan = FactScanner().scan
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("%"):
                declared = parse_directive_rel(line)
                if declared is not None:
                    yield ("declare", *declared)
                continue
            try:
                name, row = scan(line)
            except Exception as exc:
                raise ValueError(f"{path}:{lineno}: bad fact line: {line!r}") from exc
            yield ("insert", name, row)


def apply_op(db: Database, op: Op) -> None:
    """Apply one journal op to ``db``; every case is idempotent."""
    kind = op[0]
    if kind == "insert":
        db.relation(op[1], len(op[2])).insert(op[2])
    elif kind == "delete":
        relation = db.get(op[1], len(op[2]))
        if relation is not None:
            relation.delete(op[2])
    elif kind == "declare":
        db.declare(op[1], op[2])
    elif kind == "drop":
        db.drop(op[1], op[2])
    else:  # pragma: no cover - the WAL parser and the journal share the vocabulary
        raise ValueError(f"unknown journal op {kind!r}")


def apply_ops(db: Database, ops: Iterable[Op]) -> None:
    """Apply journal ops to ``db`` in order, with the result of
    :func:`apply_op` on each in turn.

    Row ops are held back per relation, and each run of same-kind ones is
    one bulk call (``Relation.insert_trusted`` / ``delete_many``): a
    relation's held run goes in before any other op touches that relation,
    and every run at the end.  WAL replay, checkpoint load and rollback all
    apply their ops through here.
    """
    held: dict = {}  # (name, arity) -> (kind, relation or None, rows)

    def flush(key) -> None:
        kind, relation, rows = held.pop(key, (None, None, None))
        if relation is None:
            return  # nothing held, or deletes from an absent relation
        if kind == "insert":
            relation.insert_trusted(rows)
        else:
            relation.delete_many(rows)

    for op in ops:
        kind, name, detail = op
        if kind == "insert" or kind == "delete":
            key = (name, len(detail))
            run = held.get(key)
            if run is None or run[0] != kind:
                flush(key)
                relation = db.relation(*key) if kind == "insert" else db.get(*key)
                run = held[key] = (kind, relation, [])
            run[2].append(detail)
        else:
            flush((name, detail))
            apply_op(db, op)
    for key in list(held):
        flush(key)
