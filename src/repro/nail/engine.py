"""The NAIL! engine: on-demand, stratified, incrementally maintained IDB.

A NAIL! predicate referenced from Glue (or queried directly) is computed
"on demand using the current value of the EDB" (paper Section 2).  The
engine caches derived relations per stratum and keeps them consistent with
*per-relation* version vectors instead of one global EDB counter:

* each stratum knows its transitive EDB support set (which relations its
  extension actually depends on, via :func:`~repro.nail.rules.compute_stratum_supports`),
  so a write to an unrelated relation leaves every cached stratum -- and
  every demand-cache entry -- untouched;
* pure *inserts* into a supporting relation are read back from the
  relation's change journal and propagated as a seminaive delta seeded
  from just the new tuples (:func:`~repro.nail.seminaive.seminaive_eval`
  with a seed), repairing the cached fixpoint in place;
* deletions, overflowed journals, and growth under negation or aggregation
  conservatively invalidate -- but only the affected strata and the strata
  depending on them, which are recomputed from scratch on next demand.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.depgraph import build_dependency_graph
from repro.analysis.scope import Skeleton, pred_skeleton
from repro.analysis.stratify import Stratum, stratify
from repro.errors import GlueRuntimeError, UnsafeRuleError
from repro.lang.ast import PredSubgoal, RuleDecl
from repro.nail.bodyeval import RowsFn, cost_plan
from repro.nail.naive import naive_eval
from repro.nail.rules import RuleInfo, compute_stratum_supports, prepare_rules
from repro.nail.seminaive import DeltaRelation, seminaive_eval
from repro.opt.cache import PlanCache
from repro.opt.plan import Plan
from repro.oracles import PRODUCT, Oracles
from repro.storage.database import Database
from repro.storage.relation import Relation, matching_rows
from repro.storage.uniondiff import uniondiff
from repro.terms.matching import match_tuple
from repro.terms.term import Term, is_ground

Row = Tuple[Term, ...]


class NailEngine:
    """Evaluates a NAIL! rule set against an EDB.

    Strata run to fixpoint with the paper's uniondiff-based seminaive
    iteration; rule bodies are planned hash joins over indexed sources,
    ordered by the :mod:`repro.opt` pass pipeline and executed by the
    plan-specialized batch kernels of :mod:`repro.col`.  ``oracles``
    swaps in the differential baselines instead (naive fixpoint, written
    order, the binding-dict row engine); only
    :mod:`repro.baselines.reference` passes anything but the product.
    """

    def __init__(
        self,
        db: Database,
        rules: Sequence[RuleDecl],
        check_safety: bool = True,
        extra_edb: Optional[Database] = None,
        oracles: Oracles = PRODUCT,
    ):
        self.db = db
        self.extra_edb = extra_edb
        self.oracles = oracles
        self.rule_infos: List[RuleInfo] = prepare_rules(rules, check_safety=check_safety)
        self.dep = build_dependency_graph([info.rule for info in self.rule_infos])
        self.strata: List[Stratum] = stratify(self.dep)
        self._stratum_of: Dict[Skeleton, int] = {}
        for stratum in self.strata:
            for skeleton in stratum.skeletons:
                self._stratum_of[skeleton] = stratum.index
        self.tracer = db.tracer
        # Run-time plans of this engine's rule bodies, one per size bucket.
        self.plans = PlanCache(db.counters)
        self.idb = Database(counters=db.counters, tracer=db.tracer, columnar=db.columnar)
        # Per stratum, the first unsafe rule's verdict, or None.
        self._stratum_unsafe: List[Optional[str]] = [None] * len(self.strata)
        for info in self.rule_infos:
            index = self._stratum_of[info.head_skeleton]
            self._stratum_unsafe[index] = self._stratum_unsafe[index] or info.unsafe
        self.rounds_run = 0  # fixpoint rounds in the last full evaluation
        # --- incremental maintenance state ----------------------------- #
        self.supports = compute_stratum_supports(self.rule_infos, self.strata)
        self._relevant_skels: Set[Skeleton] = set()
        for support in self.supports:
            self._relevant_skels |= support.transitive
        self._any_universal = any(s.universal for s in self.supports)
        # Per stratum, the strata whose extensions it reads (itself
        # included), ascending: what a query on it has to materialize.  A
        # stratum reading through predicate variables may name any lower
        # relation at run time, so it needs every stratum below it.
        self._needs: List[Tuple[int, ...]] = []
        for stratum, support in zip(self.strata, self.supports):
            if support.universal:
                needs = set(range(stratum.index + 1))
            else:
                needs = {stratum.index}
                for skeleton in support.direct:
                    lower = self._stratum_of.get(skeleton)
                    if lower is not None and lower < stratum.index:
                        needs.update(self._needs[lower])
            self._needs.append(tuple(sorted(needs)))
        # Which strata hold a valid cached extension right now.  The set is
        # not necessarily a prefix: invalidation clears exactly the strata
        # whose support changed plus their dependents.
        self._stratum_computed: List[bool] = [False] * len(self.strata)
        # Monotonic per-stratum change counter; demand-cache entries are
        # valid while the epoch of their predicate's stratum is unchanged.
        self._stratum_epoch: List[int] = [0] * len(self.strata)
        # (source tag, pred key) -> Relation.fingerprint at last scan; None
        # until the first scan establishes the baseline.
        self._edb_seen: Optional[Dict[tuple, Tuple[int, int]]] = None
        # Cheap no-change fast path: the global version pair only moves
        # when *some* relation changed, so equal pairs skip the full scan.
        self._global_seen: Optional[Tuple[int, int]] = None
        # (name, arity, signature) -> (answer Relation, stratum epoch)
        self._demand_cache: Dict[tuple, Tuple[Relation, int]] = {}
        # Delta listeners (see repro.sub): told about exact per-predicate
        # repair deltas (``on_idb_delta(key, rows)``) and about strata that
        # were invalidated instead of repaired (``on_idb_rebuild(skels)``)
        # so they can fall back to snapshot diffing or emit a resync.
        self.delta_listeners: List[object] = []

    def add_delta_listener(self, listener) -> None:
        """Register for exact repair deltas and rebuild (precision-loss)
        events; see :mod:`repro.sub`."""
        if listener not in self.delta_listeners:
            self.delta_listeners.append(listener)

    def remove_delta_listener(self, listener) -> None:
        if listener in self.delta_listeners:
            self.delta_listeners.remove(listener)

    def close(self) -> None:
        """Drop every derived relation, and with them their kernel tables.
        The engine stays usable -- the next query recomputes -- but a
        closed one holds no rows, so its owner's memory goes back at once
        instead of waiting for the cycle collector."""
        for name, arity in list(self.idb.keys()):
            self.idb.drop(name, arity)
        self._demand_cache.clear()
        self._stratum_computed = [False] * len(self.strata)

    # ------------------------------------------------------------------ #
    # public interface
    # ------------------------------------------------------------------ #

    def defines(self, skeleton: Skeleton) -> bool:
        """Does any rule define this predicate skeleton?"""
        return skeleton in self.dep.rules_by_head

    def materialize(self, name: Term, arity: int) -> Relation:
        """The full extension of a NAIL! predicate under the current EDB."""
        skeleton = pred_skeleton(name, arity)
        stratum_index = self._stratum_of.get(skeleton)
        if stratum_index is None:
            raise GlueRuntimeError(f"{name}/{arity} is not a NAIL! predicate")
        self._refresh()
        needs = self._needs[stratum_index]
        if all(self._stratum_computed[i] for i in needs):
            # Repeated references inside one EDB state cost nothing, and
            # the trace and stats should say so rather than show a gap.
            self.db.counters.idb_cache_hits += 1
            if self.tracer.enabled:
                relation = self.idb.get(name, arity)
                self.tracer.event(
                    "idb_cache_hit",
                    f"{name}/{arity}",
                    stratum=stratum_index,
                    epoch=self._stratum_epoch[stratum_index],
                    version=0 if relation is None else relation.version,
                )
        self._compute(needs)
        return self.idb.relation(name, arity)

    def materialize_all(self) -> Database:
        """Evaluate every stratum; returns the IDB database."""
        self._refresh()
        self._compute(range(len(self.strata)))
        return self.idb

    def query(self, pred: Term, args: Sequence[Term], arity: Optional[int] = None):
        """All tuples of ``pred`` matching the (possibly variable) args.

        Predicates whose rules need demand bindings -- head variables only
        bound by the caller, like Figure 1's ``graphic_search(p(X,Y),...)``
        -- are answered demand-driven via the magic-sets rewrite instead of
        full materialization ("the appropriate parts of which are computed
        on demand", paper Section 2).
        """
        arity = arity if arity is not None else len(args)
        if not self.can_materialize(pred, arity):
            return self.demand(pred, arity, args)
        return matching_rows(self.materialize(pred, arity), args)

    def can_materialize(self, name: Term, arity: int) -> bool:
        """Can this predicate be fully computed bottom-up (its own stratum
        and every stratum it depends on are range-restricted)?"""
        skeleton = pred_skeleton(name, arity)
        stratum_index = self._stratum_of.get(skeleton)
        if stratum_index is None:
            return False
        return not any(self._stratum_unsafe[i] for i in self._needs[stratum_index])

    def demand(self, name: Term, arity: int, patterns: Sequence[Term]) -> List[Row]:
        """All tuples matching ``patterns``, computed demand-driven.

        Ground argument positions become magic-seed bindings; results are
        cached per (predicate, ground-signature) until the EDB changes.
        """
        from repro.nail.magic import MagicTransformError
        from repro.terms.term import Atom, fresh_var

        self._refresh()
        patterns = tuple(patterns)
        skeleton = pred_skeleton(name, arity)
        if skeleton not in self.dep.rules_by_head:
            raise GlueRuntimeError(f"{name}/{arity} is not a NAIL! predicate")
        # Demand answers stay valid until the predicate's stratum sees a
        # relevant change -- tracked by the stratum's epoch, so writes to
        # relations outside the support set leave every entry alive.
        epoch = self._stratum_epoch[self._stratum_of[skeleton]]
        signature = tuple(p if is_ground(p) else None for p in patterns)
        key = (name, arity, signature)
        entry = self._demand_cache.get(key)
        cache_rel: Optional[Relation] = None
        if entry is not None:
            if entry[1] == epoch:
                cache_rel = entry[0]
                self.db.counters.idb_cache_hits += 1
            else:
                del self._demand_cache[key]
        if cache_rel is None:
            if skeleton[1] or not isinstance(name, Atom):
                # Compound-named family: magic cannot adorn it; fall back
                # to full materialization (raises if genuinely unsafe).
                relation = self.materialize(name, arity)
                answers = list(relation.rows())
            else:
                query_args = tuple(
                    p if is_ground(p) else fresh_var("Demand") for p in patterns
                )
                try:
                    answers = magic_query(
                        self.db,
                        [info.rule for info in self.rule_infos],
                        name,
                        query_args,
                        oracles=self.oracles,
                    )
                except MagicTransformError as exc:
                    if self.can_materialize(name, arity):
                        answers = list(self.materialize(name, arity).rows())
                    else:
                        raise UnsafeRuleError(
                            f"{name}/{arity} needs demand bindings but is outside "
                            f"the magic fragment: {exc}"
                        ) from exc
            # Answers live in a private Relation so residual filters can
            # route through its hash indexes instead of rescanning the
            # list; its counters are private too (cache-serving work is
            # not new evaluation cost).
            cache_rel = Relation(name, arity, index_policy=self.db.index_policy)
            cache_rel.insert_new(answers)
            self._demand_cache[key] = (cache_rel, epoch)
            if self.tracer.enabled:
                bound = sum(1 for p in signature if p is not None)
                self.tracer.event(
                    "demand", f"{name}/{arity}", rows=len(answers), bound_positions=bound
                )
        return matching_rows(cache_rel, patterns)

    def rule_plan(self, info: RuleInfo) -> Optional[Plan]:
        """The plan a full evaluation of ``info``'s body gets at current
        sizes, from this engine's plan cache (what EXPLAIN shows); None
        for a body that runs in program order."""
        return cost_plan(info, self._rows_fn(), self.plans, oracles=self.oracles)

    def view(self, name: Term, arity: int) -> "NailView":
        """A relation-like view for the Glue VM: selects materialize fully
        when possible and fall back to demand-driven evaluation."""
        return NailView(self, name, arity)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _refresh(self) -> None:
        """Reconcile every cached stratum with the current EDB state.

        Scans the fingerprints of the relations in the engine's support
        sets (skipped entirely while the databases' global versions are
        unmoved), classifies each changed relation as net-insert-only or
        not via its change journal, and then repairs or invalidates
        exactly the strata whose support actually changed.
        """
        global_now = (
            self.db.version,
            -1 if self.extra_edb is None else self.extra_edb.version,
        )
        if global_now == self._global_seen and self._edb_seen is not None:
            return
        sources = [self.db] if self.extra_edb is None else [self.db, self.extra_edb]
        first_scan = self._edb_seen is None
        old_seen = self._edb_seen if self._edb_seen is not None else {}
        new_seen: Dict[tuple, Tuple[int, int]] = {}
        inserts: Dict[Tuple[Term, int], List[Row]] = {}
        rebuild_skels: Set[Skeleton] = set()
        grow_skels: Set[Skeleton] = set()
        changed_versions: Dict[str, int] = {}
        for tag, source in enumerate(sources):
            for key, relation in source.snapshot_relations():
                skeleton = pred_skeleton(key[0], key[1])
                if not self._any_universal and skeleton not in self._relevant_skels:
                    continue
                relation.track_changes()
                seen_key = (tag, key)
                fp = relation.fingerprint
                new_seen[seen_key] = fp
                if first_scan:
                    continue
                old = old_seen.get(seen_key)
                if old == fp:
                    continue
                changed_versions[f"{key[0]}/{key[1]}"] = fp[1]
                if tag == 0 and self.extra_edb is not None and (
                    self.extra_edb.get(key[0], key[1]) is not None
                ):
                    # The extra EDB shadows this relation for rule bodies;
                    # a mixed view is not delta-repairable.
                    rebuild_skels.add(skeleton)
                    continue
                if old is None or old[0] != fp[0]:
                    # Newly visible relation (or dropped-and-redeclared,
                    # which gets a fresh uid).  An empty new relation is
                    # indistinguishable from an absent one -- a reader
                    # session's compile declares EDB relations on the
                    # shared catalog -- so it is no change at all.  A
                    # non-empty new one nets to inserting its extension.
                    rows = relation.copy_rows()
                    if old is None and not rows:
                        continue
                    net = (rows, []) if old is None else None
                else:
                    net = relation.changes_since(old[1])
                if net is None:
                    # The bounded change log overflowed (or the relation was
                    # redeclared): exact deltas are gone, dependents must be
                    # rebuilt.  Surface the precision loss instead of losing
                    # it silently -- subscribers diff snapshots or resync.
                    self.db.counters.idb_resyncs += 1
                    if self.tracer.enabled:
                        self.tracer.event(
                            "idb_resync",
                            f"{key[0]}/{key[1]}",
                            reason="changelog_overflow",
                        )
                    rebuild_skels.add(skeleton)
                    continue
                inserted, deleted = net
                if deleted:
                    rebuild_skels.add(skeleton)
                elif inserted:
                    grow_skels.add(skeleton)
                    inserts.setdefault(key, []).extend(inserted)
                # net == ([], []): the version moved but the content is
                # back where it was (a rolled-back transaction) -- caches
                # stay valid, nothing to do.
        if not first_scan:
            for seen_key, _old_fp in old_seen.items():
                if seen_key not in new_seen:
                    _tag, key = seen_key
                    self.db.counters.idb_resyncs += 1
                    if self.tracer.enabled:
                        self.tracer.event(
                            "idb_resync", f"{key[0]}/{key[1]}", reason="dropped"
                        )
                    rebuild_skels.add(pred_skeleton(key[0], key[1]))
                    changed_versions[f"{key[0]}/{key[1]}"] = -1
        self._edb_seen = new_seen
        self._global_seen = global_now
        if first_scan or not (rebuild_skels or grow_skels):
            return
        changed = rebuild_skels | grow_skels
        for index, support in enumerate(self.supports):
            if support.touches(changed):
                self._stratum_epoch[index] += 1
        self._propagate(inserts, rebuild_skels, changed_versions)

    def _propagate(
        self,
        inserts: Dict[Tuple[Term, int], List[Row]],
        rebuild_skels: Set[Skeleton],
        changed_versions: Dict[str, int],
    ) -> None:
        """Push EDB changes through the computed strata, bottom-up.

        Each computed stratum whose direct support intersects the changes
        is either repaired in place (monotone growth under the seminaive
        strategy: seed a delta from just the new tuples) or cleared for
        recomputation on next demand.  Both outcomes cascade: repair turns
        the stratum's own new tuples into the seed for the strata above,
        invalidation marks its skeletons as rebuilt so dependents are
        invalidated too.
        """
        counters = self.db.counters
        tracer = self.tracer
        rows_fn = self._rows_fn()
        for stratum in self.strata:
            index = stratum.index
            if not self._stratum_computed[index]:
                continue
            support = self.supports[index]
            grow_skels = {
                pred_skeleton(key[0], key[1]) for key, rows in inserts.items() if rows
            }
            if support.universal:
                touched_rebuild = set(rebuild_skels)
                touched_grow = set(grow_skels)
            else:
                touched_rebuild = rebuild_skels & support.direct
                touched_grow = grow_skels & support.direct
            if not touched_rebuild and not touched_grow:
                continue
            repair = (
                not touched_rebuild
                and not self.oracles.naive_fixpoint
                and support.repairable(touched_grow)
            )
            if tracer.enabled:
                tracer.event(
                    "idb_stale",
                    f"stratum {index}",
                    action="repair" if repair else "rebuild",
                    epoch=self._stratum_epoch[index],
                    changed=dict(changed_versions),
                )
            if not repair:
                counters.idb_invalidations += 1
                self._invalidate_stratum(stratum)
                for listener in self.delta_listeners:
                    listener.on_idb_rebuild(stratum.skeletons)
                rebuild_skels = rebuild_skels | stratum.skeletons
                continue
            # EDB facts inserted under this stratum's own predicates merge
            # into the derived relations first; only the genuinely new rows
            # seed the delta (they are this stratum's own growth).
            own_new: Dict[Tuple[Term, int], List[Row]] = {}
            for key in [k for k in inserts if pred_skeleton(k[0], k[1]) in stratum.skeletons]:
                fresh = uniondiff(self.idb.relation(key[0], key[1]), inserts.pop(key))
                if fresh:
                    own_new[key] = fresh
            seed: Dict[Tuple[Term, int], DeltaRelation] = {}
            for key, rows in list(inserts.items()) + list(own_new.items()):
                if rows:
                    store = seed[key] = DeltaRelation(self.idb.counters)
                    store.extend(rows)
            relevant = [
                info for info in self.rule_infos if info.head_skeleton in stratum.skeletons
            ]
            with tracer.span(
                "stratum", f"stratum {index}", mode="repair", rules=len(relevant)
            ) as span:
                rounds, new_rows = seminaive_eval(
                    relevant, set(stratum.skeletons), rows_fn, self.idb, seed,
                    tracer=tracer, oracles=self.oracles, plans=self.plans,
                )
                span.attrs["rounds"] = rounds
            counters.idb_delta_repairs += 1
            counters.idb_delta_rounds += rounds
            # The stratum's growth -- seeded EDB facts plus repaired
            # derivations -- becomes the insert set the strata above see.
            for key, rows in own_new.items():
                new_rows.setdefault(key, []).extend(rows)
            for key, rows in new_rows.items():
                if rows:
                    inserts[key] = rows
                    for listener in self.delta_listeners:
                        listener.on_idb_delta(key, rows)

    def _invalidate_stratum(self, stratum: Stratum) -> None:
        """Clear the stratum's derived relations (preserving the Relation
        objects callers may hold) and mark it for recomputation."""
        for key, relation in list(self.idb.items()):
            if pred_skeleton(key[0], key[1]) in stratum.skeletons:
                relation.clear()
        self._stratum_computed[stratum.index] = False

    def _rows_fn(self) -> RowsFn:
        idb = self.idb
        db = self.db
        extra = self.extra_edb
        defines = self.dep.rules_by_head

        def rows(name: Term, arity: int) -> Optional[Relation]:
            # Hand the evaluator the Relation itself (or None): joins then
            # probe its hash indexes, and only genuine full scans charge
            # ``tuples_scanned`` -- the same cost currency as the Glue VM.
            skeleton = pred_skeleton(name, arity)
            if skeleton in defines:
                return idb.get(name, arity)
            if extra is not None:
                relation = extra.get(name, arity)
                if relation is not None:
                    return relation
            return db.get(name, arity)

        return rows

    def _compute(self, indexes: Iterable[int]) -> None:
        """Evaluate the not-yet-computed strata among ``indexes`` (ascending:
        dependencies first)."""
        pending = [
            self.strata[index]
            for index in indexes
            if not self._stratum_computed[index]
        ]
        if not pending:
            return
        for stratum in pending:
            error = self._stratum_unsafe[stratum.index]
            if error is not None:
                raise UnsafeRuleError(
                    f"cannot fully materialize stratum {stratum.index}: {error} "
                    "(use a demand-bound query instead)"
                )
        rows_fn = self._rows_fn()
        tracer = self.tracer
        for stratum in pending:
            relevant = [
                info for info in self.rule_infos if info.head_skeleton in stratum.skeletons
            ]
            with tracer.span(
                "stratum", f"stratum {stratum.index}",
                rules=len(relevant), strategy=self.oracles.fixpoint,
            ) as span:
                self._declare_heads(relevant)
                self._seed_from_edb(stratum.skeletons)
                if self.oracles.naive_fixpoint:
                    self.rounds_run = naive_eval(
                        relevant, rows_fn, self.idb, tracer=tracer, oracles=self.oracles
                    )
                else:
                    self.rounds_run, _ = seminaive_eval(
                        relevant, set(stratum.skeletons), rows_fn, self.idb,
                        tracer=tracer, oracles=self.oracles, plans=self.plans,
                    )
                span.attrs["rounds"] = self.rounds_run
            self._stratum_computed[stratum.index] = True

    def _seed_from_edb(self, skeletons) -> None:
        """EDB facts stored under a rule-defined name join the derived
        relation: a predicate may have both facts and rules (the usual
        Datalog union of EDB and IDB contributions)."""
        sources = [self.db] if self.extra_edb is None else [self.db, self.extra_edb]
        for source_db in sources:
            for name, arity in list(source_db.keys()):
                if pred_skeleton(name, arity) in skeletons:
                    # Bulk load: one version bump per relation, not per row
                    # (stored rows need no re-validation).
                    self.idb.relation(name, arity).insert_trusted(
                        source_db.get(name, arity).rows()
                    )

    def _declare_heads(self, infos: Sequence[RuleInfo]) -> None:
        """Pre-create relations for ground-named heads so empty results
        still yield a (queryable, empty) relation."""
        for info in infos:
            base, chain, arity = info.head_skeleton
            if not chain:
                self.idb.declare(base, arity)


class NailView:
    """A relation-like facade over a NAIL! predicate for the Glue VM.

    Safe predicates delegate to the fully materialized relation; predicates
    that need demand bindings answer each ``select`` via the demand path.
    Only the relation operations the VM uses on derived predicates are
    provided (selection and rows; updates are rejected upstream).
    """

    __slots__ = ("engine", "name", "arity")

    def __init__(self, engine: NailEngine, name: Term, arity: int):
        self.engine = engine
        self.name = name
        self.arity = arity

    def select(self, patterns, bindings=None):
        from repro.terms.matching import match_tuple, substitute

        base = dict(bindings) if bindings else {}
        patterns = tuple(substitute(p, base) for p in patterns)
        if self.engine.can_materialize(self.name, self.arity):
            yield from self.engine.materialize(self.name, self.arity).select(patterns)
            return
        for row in self.engine.demand(self.name, self.arity, patterns):
            extended = match_tuple(patterns, row, base)
            if extended is not None:
                yield extended

    def joinable_relation(self):
        """The fully materialized Relation behind this view, or None when
        the predicate needs demand bindings (the VM's hash-join planner
        then falls back to per-row demand-driven selection)."""
        if self.engine.can_materialize(self.name, self.arity):
            return self.engine.materialize(self.name, self.arity)
        return None

    def rows(self):
        return self.engine.materialize(self.name, self.arity).rows()

    def sorted_rows(self):
        return self.engine.materialize(self.name, self.arity).sorted_rows()

    def __len__(self) -> int:
        return len(self.engine.materialize(self.name, self.arity))

    @property
    def version(self) -> int:
        return self.engine.materialize(self.name, self.arity).version


def magic_query(
    db: Database,
    rules: Sequence[RuleDecl],
    pred: Term,
    args: Sequence[Term],
    oracles: Oracles = PRODUCT,
) -> List[Row]:
    """Answer ``pred(args)`` demand-driven via the magic-sets rewrite.

    Returns the matching rows; the work is charged to ``db``'s counters,
    and the engine that evaluated the rewritten program is closed before
    this returns.  Falls back with
    :class:`~repro.nail.magic.MagicTransformError` when the rule slice is
    outside the transformable fragment; callers then use
    :meth:`NailEngine.query` on the full rules.
    """
    from repro.nail.magic import magic_transform

    program = magic_transform(rules, pred, args)
    # Share the caller's counters so magic-vs-full cost comparisons also
    # see the (tiny) work done against the seed relation.
    seed_db = Database(counters=db.counters, columnar=db.columnar)
    seed_db.relation(program.seed_pred, program.seed_arity).insert(program.seed_row)
    engine = NailEngine(
        db,
        list(program.rules),
        check_safety=True,
        extra_edb=seed_db,
        oracles=oracles,
    )
    with db.tracer.span(
        "magic", f"{pred}/{len(args)}", rewritten_rules=len(program.rules)
    ) as span:
        relation = engine.materialize(program.answer_pred, len(args))
        span.rows = len(relation)
    answers = matching_rows(relation, args)
    engine.close()  # the rewritten program's relations die with this call
    return answers
