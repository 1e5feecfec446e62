"""Literal classification: the leaf analysis of the planner.

Given one body literal and the set of variables already bound, classify
each argument position into probe-key columns (constants and bound
variables), flat extraction targets (new variables), repeated-variable
equality checks, and residual complex patterns.  The result is everything
a hash join needs at run time.

Moved here from ``repro.nail.rules`` so both engines -- the NAIL!
evaluator's :class:`~repro.nail.rules.JoinPlanner` and the Glue VM
compiler's scan-step builder -- reach it through the shared ``repro.opt``
planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.analysis.bindings import term_vars
from repro.terms.term import Term, Var, is_ground, variables


@dataclass(frozen=True)
class LiteralPlan:
    """The compiled join shape of one body literal for one bound-var set.

    ``key_cols`` are the probe-key positions, sorted by column: each entry
    is ``(col, kind, value)`` with kind ``"const"`` (value is the ground
    term to equal) or ``"var"`` (value is the bound variable supplying the
    key).  ``probe_cols`` is the matching sorted column tuple, directly
    usable as a :class:`~repro.storage.index.HashIndex` column set.

    ``extract`` positions bind new variables straight off the row (a flat
    extraction template -- no bindings-dict matching); ``eq_checks`` pins a
    repeated new variable to its first occurrence; ``complex_cols`` holds
    argument patterns (compounds containing variables) that still need
    general matching per candidate row.
    """

    pred: Term
    pred_vars: Tuple[str, ...]  # vars in the predicate name, first-appearance
    arity: int
    key_cols: Tuple[Tuple[int, str, object], ...]
    extract: Tuple[Tuple[int, str], ...]
    eq_checks: Tuple[Tuple[int, int], ...]
    complex_cols: Tuple[Tuple[int, Term], ...]
    complex_has_bound: bool  # some complex pattern mentions a bound var
    patterns: Tuple[Term, ...]  # the literal's original argument terms

    @property
    def probe_cols(self) -> Tuple[int, ...]:
        return tuple(col for col, _, _ in self.key_cols)

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


def classify_join_columns(
    pred: Term, args: Sequence[Term], bound: FrozenSet[str]
) -> LiteralPlan:
    """Classify each argument position of a literal given that the
    variables in ``bound`` are ground at evaluation time.

    Shared between the NAIL! evaluator (whose :class:`JoinPlanner` memoizes
    the result per bound-set) and the Glue VM compiler (which maps the
    bound-variable names onto supplementary-row columns and bakes the
    result into each scan step).
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
        extract=tuple(extract),
        eq_checks=tuple(eq_checks),
        complex_cols=tuple(complex_cols),
        complex_has_bound=complex_has_bound,
        patterns=tuple(args),
    )
