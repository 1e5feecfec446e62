"""Seminaive evaluation on top of the back end's uniondiff operator.

Paper Section 10: the back end "will implement a 'uniondiff' operator in
order to support compiled recursive NAIL! queries".  Each iteration joins
one *delta* occurrence per recursive literal against the accumulated
relations; ``uniondiff`` inserts the round's derivations and hands back
exactly the genuinely new tuples, which become the next delta.

Deltas are stored as :class:`DeltaRelation` objects -- join sources in the
sense of :mod:`repro.nail.bodyeval` -- so the hash-join evaluator probes a
per-key hash map built once per round instead of rescanning the delta list
once per accumulated binding.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.scope import Skeleton, pred_skeleton
from repro.lang.ast import PredSubgoal
from repro.nail.bodyeval import HeadBatch, RowsFn, derive_heads, eval_rule_body_batch
from repro.nail.rules import RuleInfo
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.opt.cache import PlanCache
from repro.oracles import PRODUCT, Oracles
from repro.storage.database import Database
from repro.storage.stats import CostCounters
from repro.storage.uniondiff import uniondiff, uniondiff_ids
from repro.terms.term import Term

Row = Tuple[Term, ...]

# Convergence guard: a stratum still deriving new tuples after this many
# rounds is a bug, not a workload.
MAX_ROUNDS = 1_000_000


class DeltaRelation:
    """One round's delta for one predicate, as an indexed join source.

    The row list is append-only within a round; hash tables (one per probed
    column set) and the membership set are built lazily on first probe and
    invalidated when the delta grows.  Costs are charged to the owning
    database's counters: full scans to ``tuples_scanned`` (deltas count the
    same as relation scans), hash builds and probes to the index ledgers.
    """

    __slots__ = ("rows", "counters", "_tables", "_set", "_atoms", "_ids")

    def __init__(self, counters: Optional[CostCounters] = None):
        self.rows: List[Row] = []
        self.counters = counters
        self._tables: Dict[Tuple[int, ...], dict] = {}
        self._set = None
        # Interned id columns (column -> ids under ``_atoms``), aligned
        # with ``rows``: handed over by the id-space merge that produced
        # the rows, or interned on first broadcast (see broadcast_columns).
        self._atoms = None
        self._ids: Dict[int, List[int]] = {}

    def extend(self, rows: Iterable[Row], atoms=None, id_cols=None) -> None:
        """Append rows; ``id_cols`` (one id list per column, under
        ``atoms``) keeps the delta in id space for the next round."""
        had_rows = bool(self.rows)
        self.rows.extend(rows)
        if self._tables:
            self._tables = {}
        self._set = None
        if id_cols is not None and not had_rows:
            self._atoms = atoms
            self._ids = {col: list(ids) for col, ids in enumerate(id_cols)}
        elif (
            id_cols is not None
            and self._atoms is atoms
            and len(self._ids) == len(id_cols)
        ):
            for col, ids in enumerate(id_cols):
                self._ids[col].extend(ids)
        else:
            self._ids = {}  # re-interned lazily, like the hash tables above

    def __len__(self) -> int:
        return len(self.rows)

    def scan(self):
        if self.counters is not None:
            self.counters.tuples_scanned += len(self.rows)
        return self.rows

    def probe(self, cols: Tuple[int, ...], key: Row):
        table = self._tables.get(cols)
        if table is None:
            table = {}
            for row in self.rows:
                table.setdefault(tuple(row[c] for c in cols), []).append(row)
            self._tables[cols] = table
            if self.counters is not None:
                self.counters.index_builds += 1
                self.counters.index_build_tuples += len(self.rows)
        hits = table.get(key, ())
        if self.counters is not None:
            self.counters.index_lookups += 1
            self.counters.index_probe_tuples += len(hits)
        return hits

    def contains(self, row: Row) -> bool:
        if self._set is None:
            self._set = set(self.rows)
        if tuple(row) in self._set:
            if self.counters is not None:
                self.counters.index_probe_tuples += 1
            return True
        return False

    def broadcast_columns(self, ctx, extract_cols: Tuple[int, ...]):
        """Interned id-columns for broadcasting this delta (see
        ``repro.col.kernels.run_broadcast``).

        A delta produced by the id-space merge already carries them; any
        other delta (a repair seed, a row-path merge) is interned once per
        column and reused by every rule that broadcasts it this round.
        Each call still charges one full scan, exactly like ``scan()``, so
        neither shows up in the counters (parity with the row engine's
        per-group scan).
        """
        if self.counters is not None:
            self.counters.tuples_scanned += len(self.rows)
        atoms = ctx.atoms
        if self._atoms is not atoms:
            self._atoms = atoms
            self._ids = {}
        ids = self._ids
        for col in extract_cols:
            if col not in ids:
                ids[col] = atoms.intern_column(self.rows, col)
        return tuple(ids[col] for col in extract_cols)


DeltaStore = Dict[Tuple[Term, int], DeltaRelation]


def _recursive_positions(info: RuleInfo, stratum: Set[Skeleton]) -> List[int]:
    """Indexes of body literals that may read the current stratum: their
    skeleton is in it, or a predicate variable of a stratum arity."""
    arities = {skeleton[2] for skeleton in stratum}
    positions: List[int] = []
    for index, subgoal in enumerate(info.rule.body):
        if isinstance(subgoal, PredSubgoal) and not subgoal.negated:
            skeleton = pred_skeleton(subgoal.pred, len(subgoal.args))
            if skeleton in stratum or (skeleton[0] is None and skeleton[2] in arities):
                positions.append(index)
    return positions


def _delta_rows_fn(delta: DeltaStore) -> RowsFn:
    def rows(name: Term, arity: int):
        return delta.get((name, arity))  # None -> the empty source

    return rows


def _delta_size(delta: DeltaStore) -> int:
    return sum(len(store) for store in delta.values())


class _Fixpoint:
    """One stratum's fixpoint in progress: how rules are evaluated, and
    the id-space merge state that lives exactly as long as the fixpoint.

    ``seen`` maps a head predicate to the id rows already known to be in
    its relation -- everything this fixpoint derived for it so far.  A
    derivation whose id row is in there is a duplicate without a Term ever
    being built; the set is dropped with this object when the stratum is
    done, so nothing per-session is parked in the shared columnar context.
    """

    __slots__ = ("rows_fn", "idb", "tracer", "oracles", "plans", "seen")

    def __init__(self, rows_fn: RowsFn, idb: Database, tracer, oracles: Oracles,
                 plans: Optional[PlanCache]):
        self.rows_fn = rows_fn
        self.idb = idb
        self.tracer = tracer
        self.oracles = oracles
        self.plans = plans
        self.seen: Dict[Tuple[Term, int], set] = {}

    def round(self, kind: str, label: str, jobs, out: DeltaStore, **attrs) -> None:
        """Run one round's ``(rule index, rule, delta position, delta
        source)`` jobs, merging every derivation into ``out``."""
        with self.tracer.span(kind, label, **attrs) as span:
            for job in jobs:
                self._fire(*job, out)
            span.rows = _delta_size(out)

    def _fire(self, index, info, position, delta_fn, out: DeltaStore) -> None:
        tracer = self.tracer
        label = _rule_label(index, info) if tracer.enabled else ""
        attrs = {} if position is None else {"delta_pos": position}
        with tracer.span("rule", label, **attrs) as span:
            bindings = eval_rule_body_batch(
                info, self.rows_fn, delta_index=position,
                delta_rows_fn=delta_fn, tracer=tracer, oracles=self.oracles,
                plans=self.plans,
            )
            self._merge(derive_heads(info, bindings), out)
            span.rows = len(bindings)

    def _merge(self, derived, out: DeltaStore) -> None:
        """uniondiff the derivations into the IDB; new tuples extend the
        delta.  Head batches stay on ids end to end (only genuinely new
        rows are decoded, and the delta keeps their id columns for the
        next round's broadcast); ``(name, row)`` lists -- compound or
        HiLog heads, aggregates, the row engine -- merge as Term rows."""
        idb = self.idb
        if isinstance(derived, HeadBatch):
            key = (derived.name, len(derived.cols))
            new_rows, new_cols = uniondiff_ids(
                idb.relation(*key), derived.cols, derived.atoms,
                self.seen.setdefault(key, set()),
            )
            if new_rows:
                _delta_for(out, key, idb).extend(new_rows, derived.atoms, new_cols)
            return
        grouped: Dict[Tuple[Term, int], List[Row]] = {}
        for name, row in derived:
            grouped.setdefault((name, len(row)), []).append(row)
        for key, rows in grouped.items():
            new_rows = uniondiff(idb.relation(*key), rows)
            if new_rows:
                _delta_for(out, key, idb).extend(new_rows)


def _delta_for(delta: DeltaStore, key: Tuple[Term, int], idb: Database) -> DeltaRelation:
    store = delta.get(key)
    if store is None:
        store = delta[key] = DeltaRelation(idb.counters)
    return store


def seminaive_eval(
    rule_infos: Sequence[RuleInfo],
    stratum: Set[Skeleton],
    rows_fn: RowsFn,
    idb: Database,
    seed: Optional[DeltaStore] = None,
    tracer: Tracer = NULL_TRACER,
    oracles: Oracles = PRODUCT,
    plans: Optional[PlanCache] = None,
) -> Tuple[int, Dict[Tuple[Term, int], List[Row]]]:
    """Run one stratum to fixpoint with seminaive iteration.

    ``rule_infos`` must be exactly the rules whose heads are in
    ``stratum``; ``rows_fn`` resolves every predicate (EDB, lower strata,
    and the current stratum's accumulating relations in ``idb``).  Only
    round 0 depends on ``seed``:

    * without one it is a full evaluation: round 0 fires every rule in
      full (base facts plus anything the lower strata already provide);
    * with one it *repairs* an already-computed stratum after monotone
      growth.  ``seed`` holds just the newly inserted tuples, per
      predicate -- EDB inserts, new tuples from repaired lower strata and
      EDB facts seeded into this stratum's own predicates -- and round 0
      fires each rule once per body occurrence of a changed predicate
      (delta there, current values everywhere else).  The caller checks
      that the stratum is monotone in that growth
      (:class:`~repro.nail.rules.StratumSupport`).

    Either way the genuinely new head tuples -- found by ``uniondiff``
    against the accumulated relations -- then iterate through the
    stratum's recursive positions until no round adds one.  Returns
    ``(rounds, new_rows)``; a repair's ``new_rows`` maps each of this
    stratum's predicates to the rows it added (the seed for repairing the
    strata above), and a full evaluation's is empty.  ``tracer`` receives
    one ``round`` (a repair: ``incremental_round``) span per round, with
    per-rule ``rule`` spans inside it.  ``oracles`` and ``plans`` (the
    engine's plan cache) are forwarded to the body evaluator.
    """
    relevant = [info for info in rule_infos if info.head_skeleton in stratum]
    fixpoint = _Fixpoint(rows_fn, idb, tracer, oracles, plans)
    delta: DeltaStore = {}
    if seed is None:
        kind = "round"
        fixpoint.round(
            kind, "round 0",
            [(i, info, None, None) for i, info in enumerate(relevant)],
            delta, rules=len(relevant),
        )
    else:
        kind = "incremental_round"
        seed_fn = _delta_rows_fn(seed)
        seed_skels = {pred_skeleton(name, arity) for name, arity in seed}
        fixpoint.round(
            kind, "seed",
            [
                (i, info, position, seed_fn)
                for i, info in enumerate(relevant)
                for position in _seed_positions(info, seed_skels)
            ],
            delta, delta_in=_delta_size(seed),
        )
    rounds = 1
    new_rows: Dict[Tuple[Term, int], List[Row]] = {}
    recursive = _recursive_jobs(relevant, stratum)
    while delta:
        if seed is not None:
            for key, store in delta.items():
                new_rows.setdefault(key, []).extend(store.rows)
        if not recursive:
            break
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise RuntimeError("seminaive evaluation did not converge")
        delta_fn = _delta_rows_fn(delta)
        new_delta: DeltaStore = {}
        fixpoint.round(
            kind, f"round {rounds - 1}",
            [(i, info, position, delta_fn) for i, info, position in recursive],
            new_delta, delta_in=_delta_size(delta),
        )
        delta = new_delta
    return rounds, new_rows


def _seed_positions(info: RuleInfo, seed_skels: Set[Skeleton]):
    """Body positions of positive literals that may read a seeded
    predicate.  A predicate-variable literal (base None) may resolve to
    any changed relation; a concrete one must match a seed key."""
    for position, subgoal in enumerate(info.rule.body):
        if isinstance(subgoal, PredSubgoal) and not subgoal.negated:
            skeleton = pred_skeleton(subgoal.pred, len(subgoal.args))
            if skeleton[0] is None or skeleton in seed_skels:
                yield position


def _recursive_jobs(relevant: Sequence[RuleInfo], stratum: Set[Skeleton]):
    """``(index among the recursive rules, rule, delta position)`` for
    every body occurrence of a predicate of the current stratum."""
    recursive = [
        (info, positions)
        for info in relevant
        if (positions := _recursive_positions(info, stratum))
    ]
    return [
        (i, info, position)
        for i, (info, positions) in enumerate(recursive)
        for position in positions
    ]


def _rule_label(index: int, info: RuleInfo) -> str:
    skeleton = info.head_skeleton  # (base name, application chain, arity)
    return f"rule#{index} {skeleton[0]}/{skeleton[-1]}"
