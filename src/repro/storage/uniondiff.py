"""The ``uniondiff`` operator (paper Section 10, citing the Aditi work).

``uniondiff(target, delta)`` adds the rows of ``delta`` to ``target`` and
returns exactly those rows that were genuinely new -- the union and the
difference in a single pass.  This is the primitive that makes compiled
recursive NAIL! queries (seminaive evaluation) efficient: each iteration's
delta is computed without a separate set-difference scan.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.storage.relation import Relation
from repro.terms.term import Term

Row = Tuple[Term, ...]


def uniondiff(target: Relation, delta: Iterable[Row]) -> List[Row]:
    """Insert ``delta`` into ``target``; return the rows that were new.

    The returned list preserves the first-occurrence order of new rows and
    contains no duplicates, even when ``delta`` itself repeats rows.  One
    version bump and one change-log entry per call (the relation's bulk
    path).
    """
    return target.insert_new(delta)


def uniondiff_ids(
    target: Relation, columns: Sequence[Sequence[int]], atoms, seen: set
) -> Tuple[List[Row], List[Sequence[int]]]:
    """``uniondiff`` over interned ids: the seminaive merge primitive.

    ``columns`` holds the delta as one id list per column of ``target``
    (at least one column) under the atom table ``atoms``; ``seen`` is the
    caller's set of id rows already known to be in ``target`` and is
    updated in place.  Duplicates -- within the delta or against ``seen``
    -- are found by hashing int tuples; only the id rows that survive are
    decoded to Term rows, once, and bulk-loaded through
    :meth:`Relation.insert_trusted` (decoded terms are stored terms, so
    nothing is re-checked), which settles rows ``target`` held before
    ``seen`` knew of them.  Counters, row order, version bump and
    change-log entry are exactly those of :func:`uniondiff` on the decoded
    delta.  Returns the new rows and their id columns, aligned.
    """
    total = len(columns[0])
    fresh = [key for key in dict.fromkeys(zip(*columns)) if key not in seen]
    target.counters.duplicate_inserts += total - len(fresh)
    if not fresh:
        return [], []
    seen.update(fresh)
    fresh_cols: List[Sequence[int]] = list(zip(*fresh))
    decode = atoms.decode
    rows = list(zip(*[decode(col) for col in fresh_cols]))
    new = target.insert_trusted(
        rows, column_values=(decode(set(col)) for col in fresh_cols)
    )
    if len(new) != len(rows):
        # Some rows were in the relation already (seeded EDB facts, a
        # repaired stratum's old extension): keep the ids of the rest
        # (``new`` holds the very tuples of ``rows`` that went in).
        added = set(map(id, new))
        fresh_cols = list(
            zip(*[key for key, row in zip(fresh, rows) if id(row) in added])
        )
    return new, fresh_cols
