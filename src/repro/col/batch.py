"""The columnar binding batch: parallel id arrays, one per variable.

A :class:`Batch` is the set-at-a-time replacement for the NAIL! body
evaluator's ``List[dict[var, Term]]``: every row binds exactly the same
variables (homogeneous by construction), each variable's values live in
one flat list of :class:`~repro.col.atoms.AtomTable` ids, and row order /
multiplicity match what the row engine would have produced -- the batch is
a *representation* change, never a semantics change.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class Batch:
    """Homogeneous bindings as parallel id columns."""

    __slots__ = ("vars", "cols", "length", "atoms")

    def __init__(
        self,
        vars: Sequence[str],
        cols: Sequence[list],
        length: Optional[int] = None,
        atoms=None,
    ):
        self.vars: Tuple[str, ...] = tuple(vars)
        self.cols: List[list] = list(cols)
        if length is None:
            length = len(self.cols[0]) if self.cols else 0
        self.length = length
        self.atoms = atoms

    @classmethod
    def unit(cls, atoms=None) -> "Batch":
        """The seed batch: one row binding nothing (``[{}]``)."""
        return cls((), (), 1, atoms)

    def __len__(self) -> int:
        return self.length

    def col(self, name: str) -> list:
        return self.cols[self.vars.index(name)]

    def take(self, indexes: Sequence[int]) -> "Batch":
        """Row selection/replication by index list, order-preserving."""
        return Batch(
            self.vars,
            [[col[i] for i in indexes] for col in self.cols],
            len(indexes),
            self.atoms,
        )

    def to_dicts(self, atoms=None) -> list:
        """Decode to the row engine's binding dicts (order/multiplicity
        preserved) -- the per-literal fallback boundary."""
        atoms = atoms if atoms is not None else self.atoms
        names = self.vars
        if not names:
            return [{} for _ in range(self.length)]
        decoded = [atoms.decode(col) for col in self.cols]
        return [dict(zip(names, values)) for values in zip(*decoded)]


def project_batch(batch: Batch, live: Sequence[str]) -> Batch:
    """Projection push-down on a batch: drop dead columns, dedup rows.

    Mirrors ``repro.nail.bodyeval._project_bindings`` exactly: the dedup
    key is the live-variable projection (variables absent from the batch
    are a constant ``None`` for every row, so they never split a class),
    and the first occurrence survives in input order.  Charges nothing,
    like the row version.
    """
    keep = [i for i, name in enumerate(batch.vars) if name in live]
    names = tuple(batch.vars[i] for i in keep)
    cols = [batch.cols[i] for i in keep]
    if not cols:
        return Batch(names, (), 1 if batch.length else 0, batch.atoms)
    seen = set()
    indexes = []
    if len(cols) == 1:
        col = cols[0]
        for i in range(batch.length):
            key = col[i]
            if key not in seen:
                seen.add(key)
                indexes.append(i)
    else:
        for i, key in enumerate(zip(*cols)):
            if key not in seen:
                seen.add(key)
                indexes.append(i)
    if len(indexes) == batch.length:
        return Batch(names, cols, batch.length, batch.atoms)
    return Batch(
        names, [[col[i] for i in indexes] for col in cols], len(indexes), batch.atoms
    )
