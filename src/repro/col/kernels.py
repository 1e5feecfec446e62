"""Plan-specialized batch kernels and the tables they probe.

The kernel generator specializes the generic join interpreter against the
:class:`~repro.opt.literal.LiteralPlan` both engines run a literal from
(a NAIL! rule literal or a Glue scan step): key columns, constant
positions, extraction templates and eq-checks are baked in as tuple
indexes, and the per-tuple work becomes one dict lookup plus list appends
over id arrays.

**Counter parity is the contract.**  Every kernel charges exactly the
:class:`~repro.storage.stats.CostCounters` increments the row engine
charges for the same logical work -- probes charge ``index_lookups`` per
input row and ``index_probe_tuples`` by *raw* (pre-eq-check) bucket size,
scans charge through the source's own ``scan()``, index builds go through
``Relation.build_index`` (cached, so the build is charged once either
way).  Kernel-cache hits and batch sizes are reported only through
``batch_kernel`` trace events, never through counters, so a columnar run
and a row run are differentially identical on all counter fields.
"""

from __future__ import annotations

from typing import Tuple

from repro.col.atoms import AtomTable
from repro.col.batch import Batch


class ColumnarContext:
    """Shared per-database columnar state: the atom table and cache counts.

    One context is shared by a database and every database evaluating
    against it (the NAIL! engine's IDB adopts its EDB's context), because
    ids from different relations meet in join keys.  The tables the
    kernels probe live on the relation they encode, as its hash indexes
    do: ``Relation.kernel_tables`` maps ``(context, kind, shape)`` to
    ``(version, table)``, and a frozen clone shares its live relation's
    dict.  So a table lives exactly as long as its relation, and a reader
    pinned at an older version still hits the tables built at it.  Two
    readers that miss at once both build a table and the last store
    wins: each is tagged with its version, and nothing iterates the dict.
    After a version bump, probe tables follow the relation's change log
    when every change since was an insert (only the touched buckets are
    re-encoded) and are re-encoded in full otherwise; row sets and
    broadcast columns always re-encode.
    """

    __slots__ = ("atoms", "hits", "misses", "extends")

    def __init__(self):
        self.atoms = AtomTable()
        self.hits = 0
        self.misses = 0
        # Probe tables brought up to date from the change log; an extension
        # is neither a hit nor a miss.
        self.extends = 0

    def stats(self) -> dict:
        return {
            "atoms": len(self.atoms),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_extends": self.extends,
        }

    def _cached(self, relation, key):
        """The relation's table under ``key`` if built at its version."""
        entry = relation.kernel_tables.get(key)
        if entry is not None and entry[0] == relation.version:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    # ------------------------------------------------------------------ #
    # NAIL! kernel state
    # ------------------------------------------------------------------ #

    def probe_table(self, relation, plan) -> Tuple[dict, str]:
        """The probe-side hash state for one (relation, literal plan).

        Maps a probe key (scalar id for single-column keys, id tuple
        otherwise) to ``(raw_bucket_len, match_count, extract_columns)``
        with eq-checks pre-applied.  Built by iterating the relation's own
        persistent ``HashIndex`` buckets, so the index build is charged
        (once) exactly as a row-engine probe would charge it, and bucket
        insertion order -- hence output order -- is identical.  Returns the
        table and how the cache served it (see :meth:`_probe_state`).
        """
        extract_cols = plan.extract_cols
        eq_checks = plan.eq_checks
        intern = self.atoms.intern
        intern_row = self.atoms.intern_row
        scalar = len(plan.probe_cols) == 1

        def encode(bucket_key, rows):
            new_cols: list = [[] for _ in extract_cols]
            matched = 0
            for row in rows:
                if eq_checks and any(row[c] != row[c0] for c, c0 in eq_checks):
                    continue
                for j, c in enumerate(extract_cols):
                    new_cols[j].append(intern(row[c]))
                matched += 1
            k = intern(bucket_key[0]) if scalar else intern_row(bucket_key)
            return k, (len(rows), matched, new_cols)

        key = (self, "probe", plan.probe_cols, extract_cols, eq_checks)
        return self._probe_state(key, relation, plan.probe_cols, encode)

    def _probe_state(self, key, relation, probe_cols, encode):
        """Look up, extend or build one cached probe table.

        ``encode(bucket_key, rows)`` turns one index bucket into a
        ``(table_key, entry)`` pair.  Returns ``(table, status)``:

        - ``"hit"``: cached at the relation's version;
        - ``"extend"``: cached at an older version, and every change since
          was an insert (:meth:`Relation.inserts_since`).  The new table is
          a shallow copy of the old one with the touched buckets encoded
          afresh; the old table is never mutated, because a reader pinned
          at the older version may still be probing it;
        - ``"miss"``: built from every bucket (no entry, deletes since, an
          exhausted change log, or an entry newer than the caller).

        ``relation.build_index`` runs on every extend and miss, as the row
        engine's probe would call it, so counters match in either mode.
        """
        version = relation.version
        tables = relation.kernel_tables
        entry = tables.get(key)
        if entry is not None and entry[0] == version:
            self.hits += 1
            return entry[1], "hit"
        index = relation.build_index(probe_cols)
        added = None
        if entry is not None and entry[0] < version:
            added = relation.inserts_since(entry[0])
        if added is None:
            self.misses += 1
            status = "miss"
            table = dict(
                encode(bucket_key, rows)
                for bucket_key, rows in index.buckets_view().items()
            )
        else:
            self.extends += 1
            status = "extend"
            table = dict(entry[1])
            bucket = index.bucket
            for bucket_key in dict.fromkeys(map(index.key_of, added)):
                k, value = encode(bucket_key, bucket(bucket_key))
                table[k] = value
        tables[key] = (version, table)
        return table, status

    def rowset(self, relation) -> Tuple[set, str]:
        """The relation's rows as a set of id tuples (membership kernel).

        Building charges nothing, mirroring the row engine's ``contains``
        path (a plain set-membership test over the stored row dict).
        """
        key = (self, "rows")
        rows = self._cached(relation, key)
        if rows is not None:
            return rows, "hit"
        intern_row = self.atoms.intern_row
        rows = frozenset(intern_row(row) for row in relation.rows())
        relation.kernel_tables[key] = (relation.version, rows)
        return rows, "miss"

    def broadcast_columns(self, relation, extract_cols: Tuple[int, ...]):
        """Interned id-columns for a full-relation broadcast.

        Keyed by ``extract_cols`` and version-checked like the probe
        tables, so a relation that seminaive rounds broadcast repeatedly
        without changing -- the accumulated IDB, a static EDB side -- is
        encoded once per version instead of once per round per rule.
        Charges nothing itself: the caller charges the scan, which the row
        engine pays every round regardless (counter parity).
        """
        key = (self, "broadcast", extract_cols)
        cols = self._cached(relation, key)
        if cols is not None:
            return cols
        intern_column = self.atoms.intern_column
        rows = list(relation.rows())  # rows() is a one-pass iterator
        cols = tuple(intern_column(rows, c) for c in extract_cols)
        relation.kernel_tables[key] = (relation.version, cols)
        return cols

    # ------------------------------------------------------------------ #
    # Glue kernel state
    # ------------------------------------------------------------------ #

    def glue_probe_table(self, target, plan) -> Tuple[dict, str]:
        """Suffix table for a Glue scan step: probe key -> suffix rows.

        Keys are Term tuples (scalar Terms for single-column keys) and the
        values are ``(raw_bucket_len, [suffix Term tuples])`` with the
        eq-checks and extraction template pre-applied, so the emit closure
        is one lookup and one list comprehension per supplementary row.
        Term-level (no interning): frame-local relations need no shared id
        space, and the emitted rows feed straight into Term-tuple storage.
        Cached, extended and rebuilt as :meth:`_probe_state` describes.
        """
        extract = plan.extract_cols
        eq_checks = plan.eq_checks
        scalar = len(plan.probe_cols) == 1

        def encode(bucket_key, rows):
            if eq_checks:
                suffixes = [
                    tuple(row[c] for c in extract)
                    for row in rows
                    if all(row[c] == row[c0] for c, c0 in eq_checks)
                ]
            else:
                suffixes = [tuple(row[c] for c in extract) for row in rows]
            return (bucket_key[0] if scalar else bucket_key), (len(rows), suffixes)

        key = (self, "glue", plan.probe_cols, extract, eq_checks)
        return self._probe_state(key, target, plan.probe_cols, encode)


# ---------------------------------------------------------------------- #
# NAIL! batch kernels
# ---------------------------------------------------------------------- #


def run_probe(batch: Batch, plan, table: dict, counters, atoms: AtomTable) -> Batch:
    """Vectorized hash probe + extraction over one batch.

    Row-engine parity: one ``index_lookups`` per input row (misses
    included), ``index_probe_tuples`` by raw bucket length, output rows in
    (input row, bucket insertion) order.
    """
    key_cols = plan.key_cols
    n = batch.length
    if len(key_cols) == 1:
        _col, kind, value = key_cols[0]
        keys = batch.col(value) if kind == "var" else [atoms.intern(value)] * n
    else:
        parts = [
            batch.col(value) if kind == "var" else [atoms.intern(value)] * n
            for _col, kind, value in key_cols
        ]
        keys = zip(*parts)
    get = table.get
    rep: list = []
    append = rep.append
    new_cols: list = [[] for _ in plan.extract]
    probed = 0
    i = 0
    for key in keys:
        entry = get(key)
        if entry is not None:
            raw, matched, entry_cols = entry
            probed += raw
            if matched == 1:
                append(i)
                for j, column in enumerate(entry_cols):
                    new_cols[j].append(column[0])
            elif matched:
                rep.extend([i] * matched)
                for j, column in enumerate(entry_cols):
                    new_cols[j].extend(column)
        i += 1
    counters.index_lookups += n
    counters.index_probe_tuples += probed
    carry = [[col[i] for i in rep] for col in batch.cols]
    names = batch.vars + tuple(name for _col, name in plan.extract)
    return Batch(names, carry + new_cols, len(rep), atoms)


def run_broadcast(batch: Batch, plan, source, atoms: AtomTable, ctx=None) -> Batch:
    """No shared variables: compute extension fragments once, broadcast.

    Candidates come from the source's own ``probe``/``scan`` (one call per
    batch, exactly like the row engine's one call per binding group), so
    scan and probe counters are the source's, unchanged.  Empty-extraction
    fragments preserve multiplicity: each surviving candidate contributes
    one copy of every input row, as the row engine's empty-fragment append
    does.

    The common seminaive shape -- full scan, no eq-checks -- takes a
    cached-encode fast path when the source offers ``broadcast_columns``
    (relations and deltas both cache on themselves), so an unchanged source broadcast by several rules and
    rounds is interned once instead of every time.  The source still
    charges the scan, keeping counters identical to the uncached path.
    """
    eq_checks = plan.eq_checks
    extract = plan.extract
    if ctx is not None and not plan.probe_cols and not eq_checks:
        encode = getattr(source, "broadcast_columns", None)
        if encode is not None:
            frag_cols = encode(ctx, tuple(c for c, _name in extract))
            return _broadcast_tail(batch, frag_cols, len(source), extract, atoms)
    if plan.probe_cols:
        key = tuple(value for _col, _kind, value in plan.key_cols)
        candidates = source.probe(plan.probe_cols, key)
    else:
        candidates = source.scan()
    intern = atoms.intern
    if eq_checks:
        survivors = [
            row
            for row in candidates
            if all(row[c] == row[c0] for c, c0 in eq_checks)
        ]
    else:
        survivors = candidates if isinstance(candidates, list) else list(candidates)
    # Column-at-a-time encode: one comprehension per extracted column.
    frag_cols = [[intern(row[c]) for row in survivors] for c, _name in extract]
    return _broadcast_tail(batch, frag_cols, len(survivors), extract, atoms)


def _broadcast_tail(batch: Batch, frag_cols, nfrag: int, extract, atoms) -> Batch:
    """Cross the encoded fragment columns with the carried batch columns."""
    names = batch.vars + tuple(name for _col, name in extract)
    n = batch.length
    if nfrag == 0:
        return Batch(names, [[] for _ in names], 0, atoms)
    if nfrag == 1:
        carry = [list(col) for col in batch.cols]
    else:
        carry = [
            [value for value in col for _ in range(nfrag)] for col in batch.cols
        ]
    new_cols = [col * n for col in frag_cols]
    return Batch(names, carry + new_cols, n * nfrag, atoms)


def run_member(batch: Batch, plan, rowset, counters, atoms: AtomTable) -> Batch:
    """Negated fully-covered literal: batch anti-membership filter.

    Row-engine parity: ``index_probe_tuples`` += 1 per *hit* only (the
    ``contains`` charge), survivors keep input order.
    """
    key_cols = plan.key_cols
    n = batch.length
    parts = [
        batch.col(value) if kind == "var" else [atoms.intern(value)] * n
        for _col, kind, value in key_cols
    ]
    keep: list = []
    hits = 0
    for i, key in enumerate(zip(*parts)):
        if key in rowset:
            hits += 1
        else:
            keep.append(i)
    counters.index_probe_tuples += hits
    if len(keep) == n:
        return batch
    return batch.take(keep)
