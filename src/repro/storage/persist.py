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
from typing import Optional

from repro.storage.database import Database
from repro.terms.printer import term_to_str
from repro.terms.term import Term

_HEADER = "% Glue-Nail EDB dump (format 1)"


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


class InsertBatches:
    """Rows held back per relation, then inserted as one batch each.

    Rows are ground Term tuples.  Each goes to the relation of its name and
    length, declared on first sight, so the catalog order and each
    relation's row order are those of inserting the rows one at a time.
    """

    def __init__(self, db: Database):
        self.db = db
        self._held: dict = {}  # (name, arity) -> (relation, rows)

    def add(self, name: Term, row: tuple) -> None:
        batch = self._held.get((name, len(row)))
        if batch is None:
            batch = self._held[name, len(row)] = (self.db.relation(name, len(row)), [])
        batch[1].append(row)

    def flush(self, key=None) -> None:
        """Insert the rows held for ``key`` = ``(name, arity)``, or for every
        relation when ``key`` is None."""
        for each in list(self._held) if key is None else [key]:
            batch = self._held.pop(each, None)
            if batch is not None:
                batch[0].insert_trusted(batch[1])


def load_database(path: str, db: Optional[Database] = None) -> Database:
    """Load a dump produced by :func:`save_database` into ``db`` (or a new one).

    Fact lines are read by one :class:`~repro.lang.facts.FactScanner`, and
    each relation receives its rows as one batch once the whole file has
    been read, so a bad line raises before any row is inserted.
    """
    from repro.lang.facts import FactScanner
    from repro.lang.parser import parse_directive_rel

    if db is None:
        db = Database()
    scan = FactScanner().scan
    batches = InsertBatches(db)
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("%"):
                declared = parse_directive_rel(line)
                if declared is not None:
                    name, arity = declared
                    db.declare(name, arity)
                continue
            try:
                name, row = scan(line)
            except Exception as exc:
                raise ValueError(f"{path}:{lineno}: bad fact line: {line!r}") from exc
            batches.add(name, row)
    batches.flush()
    return db
