"""Literal classification: the leaf analysis of the planner.

Given one body literal and the set of variables already bound, classify
each argument position into probe-key columns (constants and bound
variables), flat extraction targets (new variables), repeated-variable
equality checks, and residual complex patterns.  The result is everything
a hash join needs at run time, and it names the join strategy both
engines run -- the NAIL! evaluator through its
:class:`~repro.nail.rules.JoinPlanner`, the Glue VM through the scan and
anti-join steps its compiler builds.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.bindings import term_vars
from repro.record import Record
from repro.terms.term import Term, Var, is_ground, variables

#: Every ``strategy`` a ``join`` trace event can carry, in both engines.
#: ``select`` / ``anti-select`` are the VM's per-row fallback for a
#: demand-driven NAIL! view, which has no stored extension to hash.
JOIN_STRATEGIES = frozenset({
    "probe", "probe+match", "scan+match", "broadcast", "member", "select",
    "anti-probe", "anti-probe+match", "anti-scan+match", "anti-static",
    "anti-member", "anti-select",
})


class LiteralPlan(Record, uncompared=("strategy", "vm_strategy")):
    """The compiled join shape of one body literal for one bound-var set.

    ``key_cols`` are the probe-key positions, sorted by column: each entry
    is ``(col, kind, value)`` with kind ``"const"`` (value is the ground
    term to equal) or ``"var"`` (value is the bound variable supplying the
    key).  ``probe_cols`` is the matching sorted column tuple, directly
    usable as a :class:`~repro.storage.index.HashIndex` column set.

    ``extract`` positions bind new variables straight off the row (a flat
    extraction template -- no bindings-dict matching); ``extract_cols`` is
    the same template as bare columns (new variables in first-appearance
    order), or None when the literal has compound residue.  ``eq_checks``
    pins a repeated new variable to its first occurrence; ``complex_cols``
    holds argument patterns (compounds containing variables) that still
    need general matching per candidate row; ``complex_has_bound`` is true
    when one of them mentions a bound variable.  ``pred_vars`` are the
    variables of the predicate name in first-appearance order, and
    ``patterns`` the literal's original argument terms.

    ``strategy`` is how the literal runs against one group of bindings (a
    label in :data:`JOIN_STRATEGIES`); the NAIL! evaluator dispatches on
    it.  ``vm_strategy`` is the Glue VM's label: ``strategy`` except for
    two VM-only choices -- constant-only keys probe once per row (NAIL!
    probes once per group and broadcasts), and a fully bound positive
    literal is a ``member`` test (NAIL! ``probe``s it).  Both are derived
    from the fields, so they take no part in equality.
    """

    __slots__ = ("pred", "pred_vars", "arity", "key_cols", "probe_cols", "extract", "eq_checks",
                 "complex_cols", "complex_has_bound", "patterns", "negated", "strategy",
                 "vm_strategy")

    def __init__(self, pred: Term, pred_vars: Tuple[str, ...], arity: int,
                 key_cols: Tuple[Tuple[int, str, object], ...], probe_cols: Tuple[int, ...],
                 extract: Tuple[Tuple[int, str], ...], eq_checks: Tuple[Tuple[int, int], ...],
                 complex_cols: Tuple[Tuple[int, Term], ...], complex_has_bound: bool,
                 patterns: Tuple[Term, ...], negated: bool) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "pred_vars", pred_vars)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "key_cols", key_cols)
        object.__setattr__(self, "probe_cols", probe_cols)
        object.__setattr__(self, "extract", extract)
        object.__setattr__(self, "eq_checks", eq_checks)
        object.__setattr__(self, "complex_cols", complex_cols)
        object.__setattr__(self, "complex_has_bound", complex_has_bound)
        object.__setattr__(self, "patterns", patterns)
        object.__setattr__(self, "negated", negated)
        strategy = self._strategy(keyed=self.has_var_keys, positive_member=False)
        object.__setattr__(self, "strategy", strategy)
        vm_strategy = self._strategy(keyed=bool(key_cols), positive_member=True)
        object.__setattr__(self, "vm_strategy", vm_strategy)

    @property
    def extract_cols(self) -> Optional[Tuple[int, ...]]:
        if self.complex_cols:
            return None
        return tuple(col for col, _ in self.extract)

    @property
    def has_var_keys(self) -> bool:
        return any(kind == "var" for _, kind, _ in self.key_cols)

    @property
    def covers_all_columns(self) -> bool:
        """True when the probe key determines the entire row (a membership
        test -- the fully-ground negation fast path)."""
        return (
            len(self.key_cols) == self.arity
            and not self.complex_cols
        )

    def key_build(self, colindex: Mapping[str, int]):
        """The probe key positionally: per key column, ``(position, None)``
        for a bound variable at ``colindex[var]`` of the incoming row or
        ``(None, const)`` for a ground argument."""
        return tuple(
            (None, value) if kind == "const" else (colindex[value], None)
            for _col, kind, value in self.key_cols
        )

    def _strategy(self, keyed: bool, positive_member: bool) -> str:
        anti = "anti-" if self.negated else ""
        if self.complex_cols and (keyed or self.complex_has_bound):
            # Compound residue: general matching per candidate row.
            return anti + ("probe+match" if self.key_cols else "scan+match")
        if not keyed:
            # One candidate set serves every binding.
            return "anti-static" if self.negated else "broadcast"
        if self.covers_all_columns and (self.negated or positive_member):
            return anti + "member"
        return anti + "probe"


def classify_join_columns(
    pred: Term, args: Sequence[Term], bound: FrozenSet[str], negated: bool
) -> LiteralPlan:
    """Classify each argument position of a literal given that the
    variables in ``bound`` are ground at evaluation time.

    Shared between the NAIL! evaluator (whose :class:`JoinPlanner` memoizes
    the result per bound-set) and the Glue VM compiler (which keeps the
    result, with the bound variables mapped onto supplementary-row
    columns, in each scan and anti-join step).
    """
    pred_vars: List[str] = []
    for v in variables(pred):
        if not v.is_anonymous and v.name not in pred_vars:
            pred_vars.append(v.name)
    key_cols: List[Tuple[int, str, object]] = []
    extract: List[Tuple[int, str]] = []
    eq_checks: List[Tuple[int, int]] = []
    complex_cols: List[Tuple[int, Term]] = []
    first_new: Dict[str, int] = {}
    for col, arg in enumerate(args):
        if isinstance(arg, Var):
            if arg.is_anonymous:
                continue  # matches anything, binds nothing
            if arg.name in bound:
                key_cols.append((col, "var", arg.name))
            elif arg.name in first_new:
                eq_checks.append((col, first_new[arg.name]))
            else:
                first_new[arg.name] = col
                extract.append((col, arg.name))
        elif is_ground(arg):
            key_cols.append((col, "const", arg))
        else:
            complex_cols.append((col, arg))
    complex_has_bound = any(term_vars(pat) & bound for _, pat in complex_cols)
    return LiteralPlan(
        pred=pred,
        pred_vars=tuple(pred_vars),
        arity=len(args),
        key_cols=tuple(key_cols),
        probe_cols=tuple(col for col, _, _ in key_cols),
        extract=tuple(extract),
        eq_checks=tuple(eq_checks),
        complex_cols=tuple(complex_cols),
        complex_has_bound=complex_has_bound,
        patterns=tuple(args),
        negated=negated,
    )


def trace_join(
    tracer, name: Term, plan: LiteralPlan, strategy: str, bindings: int,
    source: Optional[int], rows: int, est_rows: Optional[float],
) -> None:
    """Emit the ``join`` trace event both engines write per (literal,
    resolved source): the strategy, the probe-key columns, the input
    sizes, and the planner's estimate against the actual output rows."""
    if tracer.enabled:
        tracer.event(
            "join",
            f"{name}/{plan.arity}",
            rows=rows,
            strategy=strategy,
            bindings=bindings,
            source=source,
            key=list(plan.probe_cols),
            est_rows=est_rows,
            actual_rows=rows,
        )
