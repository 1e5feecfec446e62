"""Naive bottom-up evaluation: the baseline for experiment E6.

Re-derives everything from scratch each pass until no pass adds a tuple.
Correct, and wasteful in exactly the way the uniondiff-based seminaive
evaluation (paper Section 10) is designed to avoid.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.nail.bodyeval import RowsFn, derive_heads, eval_rule_body_batch
from repro.nail.rules import RuleInfo
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.oracles import PRODUCT, Oracles
from repro.storage.database import Database
from repro.terms.term import Term

Row = Tuple[Term, ...]

# Convergence guard: a program still deriving new tuples after this many
# passes is a bug, not a workload.
MAX_PASSES = 1_000_000


def naive_eval(
    rule_infos: Sequence[RuleInfo],
    rows_fn: RowsFn,
    idb: Database,
    tracer: Tracer = NULL_TRACER,
    oracles: Oracles = PRODUCT,
) -> int:
    """Run all rules to fixpoint, full re-derivation each pass.

    ``rows_fn`` resolves every predicate; derived tuples go into ``idb``
    (which ``rows_fn`` must consult for IDB names).  Returns the number of
    passes run.  ``tracer`` receives one ``pass`` span per pass whose
    ``rows`` is the number of genuinely new tuples.
    ``oracles`` is forwarded to the body evaluator.
    """
    passes = 0
    while True:
        passes += 1
        if passes > MAX_PASSES:
            raise RuntimeError("naive evaluation did not converge")
        with tracer.span("pass", f"pass {passes}") as span:
            added = _run_pass(rule_infos, rows_fn, idb, tracer, oracles)
            span.rows = added
        if added == 0:
            return passes


def _run_pass(
    rule_infos: Sequence[RuleInfo],
    rows_fn: RowsFn,
    idb: Database,
    tracer: Tracer,
    oracles: Oracles,
) -> int:
    added = 0
    for info in rule_infos:
        bindings_list = eval_rule_body_batch(info, rows_fn, tracer=tracer, oracles=oracles)
        for name, row in derive_heads(info, bindings_list):
            if idb.relation(name, len(row)).insert(row):
                added += 1
    return added
