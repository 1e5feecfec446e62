"""Directory-of-TSV persistence: one ``<name>.facts`` file per relation.

A second on-disk format next to the single-file dump of
:mod:`repro.storage.persist`, convenient for bulk data exchange (the
layout Datalog practitioners know from Soufflé).  Each relation becomes
``<mangled-name>.arity.facts`` with one tab-separated ground term per
column; terms are written in surface syntax, so compound values and
quoted atoms survive.

Tabs and newlines inside atoms are no problem: such atoms print quoted
with escape sequences, never raw control characters.
"""

from __future__ import annotations

import os
import re
from typing import List, Optional, Tuple

from repro.storage.database import Database
from repro.terms.printer import term_to_str
from repro.terms.term import Term

_SAFE_NAME = re.compile(r"[A-Za-z0-9_]+\Z")


def _file_stem(name: Term, arity: int) -> str:
    """A filesystem-safe stem for a relation name term.

    Plain identifier atoms map to themselves; anything else (quoted atoms,
    compound HiLog names) is percent-encoded from its surface syntax.
    """
    text = term_to_str(name)
    if _SAFE_NAME.match(text):
        return f"{text}.{arity}"
    encoded = "".join(
        ch if ch.isalnum() or ch == "_" else f"%{ord(ch):02x}" for ch in text
    )
    return f"{encoded}.{arity}"


def _decode_stem(stem: str) -> Tuple[Term, int]:
    from repro.lang.parser import parse_term

    base, _, arity_text = stem.rpartition(".")
    decoded = re.sub(r"%([0-9a-f]{2})", lambda m: chr(int(m.group(1), 16)), base)
    return parse_term(decoded), int(arity_text)


def save_tsv_dir(db: Database, directory: str) -> int:
    """Write every relation of ``db`` as ``directory/<name>.<arity>.facts``.

    Returns the number of fact rows written.  Existing ``.facts`` files for
    relations no longer in the database are left untouched (the caller owns
    the directory's lifecycle).
    """
    os.makedirs(directory, exist_ok=True)
    count = 0
    for name, arity in db.sorted_keys():
        relation = db.get(name, arity)
        path = os.path.join(directory, _file_stem(name, arity) + ".facts")
        with open(path, "w", encoding="utf-8") as handle:
            for row in relation.sorted_rows():
                handle.write("\t".join(term_to_str(v) for v in row) + "\n")
                count += 1
    return count


def load_tsv_dir(directory: str, db: Optional[Database] = None) -> Database:
    """Load every ``*.facts`` file in ``directory`` into ``db`` (or a new DB),
    one bulk insert per file, all in one implicit transaction."""
    from repro.lang.parser import parse_term

    if db is None:
        db = Database()
    with db.atomically():
        for filename in sorted(os.listdir(directory)):
            if not filename.endswith(".facts"):
                continue
            stem = filename[: -len(".facts")]
            name, arity = _decode_stem(stem)
            relation = db.relation(name, arity)
            path = os.path.join(directory, filename)
            rows = []
            with open(path, "r", encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    line = line.rstrip("\n")
                    if not line and arity > 0:
                        continue
                    fields = line.split("\t") if arity > 0 else []
                    if len(fields) != arity:
                        raise ValueError(
                            f"{path}:{lineno}: expected {arity} fields, got {len(fields)}"
                        )
                    try:
                        rows.append(tuple(parse_term(field) for field in fields))
                    except Exception as exc:
                        raise ValueError(f"{path}:{lineno}: bad term: {exc}") from exc
            relation.insert_new(rows)
    return db
