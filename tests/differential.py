"""The product against the sqlite3 reference semantics (``tests.oracle``).

:func:`agree` loads one program and one EDB into a fresh
:class:`~repro.core.system.GlueNailSystem` and into an
:class:`~tests.oracle.evaluator.Oracle`, runs the top-level Glue script on
both, and asserts that every compared relation holds the same rows, as
canonical text, or that both runs failed.  A program outside the
oracle's fragment is skipped, and :data:`TALLY` counts it, so a test can
bound how much the oracle skips.
"""

from __future__ import annotations

from collections import Counter

from repro.core.system import GlueNailSystem
from repro.errors import GlueNailError
from repro.lang.ast import AssignStmt, RepeatStmt, RuleDecl
from repro.lang.parser import parse_program
from repro.terms.term import mk
from tests.oracle.evaluator import Oracle, OracleError, Outside, canon

TALLY: Counter = Counter()  # "agreed" / "skipped" examples in this run
MAX_ITERATIONS = 100  # repeat loops (and oracle fixpoints) fail past this
FAILED = "failed"


def heads(source: str):
    """``(name, arity)`` of every ground-named NAIL! and Glue head."""
    out = set()
    items = list(parse_program(source).items)
    while items:
        item = items.pop()
        if isinstance(item, RepeatStmt):
            items.extend(item.body)
        elif isinstance(item, (RuleDecl, AssignStmt)) and item.head_pred.is_ground:
            out.add((str(item.head_pred), len(item.head_args)))
    return sorted(out)


def _lift(facts):
    return {name: [tuple(mk(v) for v in row) for row in rows] for name, rows in facts.items()}


def product_rows(source, facts, preds, system=None):
    """The product's rows for ``preds``, or :data:`FAILED`."""
    if system is None:
        system = GlueNailSystem(max_loop_iterations=MAX_ITERATIONS)
    try:
        system.load(source)
        for name, rows in _lift(facts).items():
            system.facts(name, rows)
        system.run_script()
        # Dependents first: a relation's rows must not depend on which
        # relations were read before it.
        return {
            (name, arity): sorted(tuple(map(canon, row)) for row in system.rows(name, arity))
            for name, arity in reversed(preds)
        }
    except GlueNailError:
        return FAILED


def oracle_rows(source, facts, preds):
    """The oracle's rows for ``preds``, or :data:`FAILED`; raises
    :class:`Outside` for a program outside its fragment."""
    oracle = Oracle(max_iterations=MAX_ITERATIONS)
    oracle.load(source)
    try:
        for name, rows in _lift(facts).items():
            oracle.facts(mk(name), rows)
        oracle.run_script()
        return {(name, arity): sorted(oracle.rows(mk(name), arity)) for name, arity in preds}
    except OracleError:
        return FAILED


def agree(source, facts=None, preds=None, product=product_rows):
    """Assert the product and the oracle agree; return the oracle's rows,
    or None when the program is outside the oracle's fragment."""
    facts = facts or {}
    preds = preds or heads(source)
    try:
        expected = oracle_rows(source, facts, preds)
    except Outside:
        TALLY["skipped"] += 1
        return None
    got = product(source, facts, preds)
    assert got == expected, f"product and oracle disagree on\n{source}\n{facts}"
    TALLY["agreed"] += 1
    return expected


# ---------------------------------------------------------------------- #
# random programs
# ---------------------------------------------------------------------- #
#
# Both generators take ``pick(lo, hi)``, an inclusive integer draw, so one
# program source serves hypothesis (``draw(st.integers(lo, hi))``) and a
# seeded ``random.Random(seed).randint`` sweep alike.

EDB = {"e0": 2, "e1": 2, "n": 1, "t": 3}
VARS = ("X", "Y", "Z", "W")
# c/2 holds compound values.  Bodies read its first column only through
# a ``box(V)`` pattern whose V another literal binds (or a constant), so a
# compound never reaches arithmetic or an ordering comparison.
COMPOUND_RULES = ["c(box(X), Y) :- e0(X, Y).", "c(box(Y), X) :- t(X, Y, _)."]


class _Draw:
    def __init__(self, pick):
        self.pick = pick

    def choice(self, seq):
        seq = list(seq)
        return seq[self.pick(0, len(seq) - 1)]

    def chance(self, n: int) -> bool:
        """True one time in ``n``."""
        return self.pick(1, n) == 1

    def literal(self, preds, bound: list, negated=False) -> str:
        """``p(args)`` over ``preds`` (name -> arity).  A negated literal
        only reads variables in ``bound``; a positive one extends it."""
        name = self.choice(sorted(preds))
        args = []
        for position in range(preds[name]):
            roll = self.pick(0, 9)
            if name == "c" and position == 0:
                args.append(f"box({self.choice(bound) if bound else self.pick(0, 5)})")
            elif roll == 0:
                args.append(str(self.pick(0, 5)))
            elif roll == 1 or (negated and not bound):
                args.append("_")
            else:
                var = self.choice(bound if negated else VARS)
                args.append(var)
                if var not in bound:
                    bound.append(var)
        return f"{'!' if negated else ''}{name}({', '.join(args)})"

    def filters(self, bound: list, lower, arithmetic: bool) -> list:
        """Optional negation, comparison and ``=`` binders over ``bound``."""
        out = []
        if lower and self.chance(3):
            out.append(self.literal(lower, bound, negated=True))
        if self.chance(3):
            op = self.choice(["<", "<=", ">", ">=", "!=", "="])
            right = self.choice(bound + [str(self.pick(0, 5))])
            out.append(f"{self.choice(bound)} {op} {right}")
        free = [v for v in VARS if v not in bound]
        if free and self.chance(4):
            var = free[0]
            out.append(f"{self.pick(0, 5)} = {var}")  # a right-hand binder
            bound.append(var)
        if free[1:] and arithmetic and self.chance(3):
            var = free[1]
            op = self.choice(["+", "-", "*", "/", "mod"])
            const = self.choice(["2", "3", "-2"]) if op in ("/", "mod") else str(self.pick(0, 3))
            out.append(f"{var} = {self.choice(bound)} {op} {const}")
            bound.append(var)
        return out

    def head(self, name: str, arity: int, bound: list) -> str:
        args = [self.choice(bound) if bound and not self.chance(8) else str(self.pick(0, 5))
                for _ in range(arity)]
        return f"{name}({', '.join(args)})" if args else name

    def aggregate(self, bound: list, arity: int) -> tuple:
        """``(body tail, head args)`` for an aggregate over ``bound``."""
        op = self.choice(["count", "sum", "product", "min", "max", "mean"])
        tail = [f"N = {op}({self.choice(bound)})"]
        if arity == 1:
            return tail, ["N"]
        group = self.choice(bound)
        return [f"group_by({group})"] + tail, [group, "N"]


def nail_program(pick, hilog: bool = True) -> str:
    """A random stratified NAIL! program over EDB ``e0/2``, ``e1/2``,
    ``n/1``, ``t/3`` and ``names/1``: predicates ``d0..dk`` of arity 1 or 2, where
    ``di`` reads ``dj`` positively for ``j <= i`` (recursion), negatively
    or under an aggregate only for ``j < i``; comparisons, constants,
    right-hand ``=`` binders, arithmetic in rules that do not read their
    own head, ``group_by`` aggregates, and compound values (``c/2``, read
    through ``box(V)`` patterns).  With ``hilog``, ``h/2`` reads
    ``names(P) & P(X, Y)``: a predicate variable over EDB and NAIL! names,
    ``h`` itself included.  Nothing reads ``h``, so the program stays
    stratified under the set-of-names reading."""
    draw = _Draw(pick)
    arities = {f"d{i}": draw.pick(1, 2) for i in range(draw.pick(2, 5))}
    if hilog and draw.chance(3):
        arities["h"] = 2
    edb, lines = dict(EDB), []
    if draw.chance(2):
        edb["c"] = 2
        lines += COMPOUND_RULES
    for i, (name, arity) in enumerate(arities.items()):
        lower = dict(edb, **{d: arities[d] for d in list(arities)[:i]})
        for _ in range(draw.pick(1, 3)):
            bound: list = []
            kind = 9 if name == "h" else draw.pick(0, 8)
            recursive = kind < 3 or name == "h"
            readable = dict(lower, **{name: arity}) if recursive else lower
            body = [draw.literal(readable, bound) for _ in range(draw.pick(1, 3))]
            if kind == 9:
                body += ["names(P)", "P(X, Y)"]
                bound += [v for v in ("X", "Y") if v not in bound]
            if not bound:
                body.append("e0(X, Y)")
                bound += ["X", "Y"]
            body += draw.filters(bound, lower, arithmetic=not recursive)
            if kind == 8:
                tail, args = draw.aggregate(bound, arity)
                lines.append(f"{name}({', '.join(args)}) :- {' & '.join(body + tail)}.")
            else:
                lines.append(f"{draw.head(name, arity, bound)} :- {' & '.join(body)}.")
    return "\n".join(lines)


NAMES = ("e0", "e1", "n", "d0", "d1", "h", "g0", "v", "m")
GLUE_RELS = {"g0": 2, "g1": 2, "g2": 1}
# NAIL! views over Glue relations: a join, a negation over the join and
# an aggregate, all repaired incrementally as the script updates g0, g1.
VIEWS = {
    "v": (2, "v(X, Z) :- g0(X, Y) & e1(Y, Z)."),
    "w": (1, "w(X) :- g1(X, _) & !v(X, X)."),
    "m": (2, "m(X, N) :- g0(X, Y) & group_by(X) & N = count(Y)."),
}


def glue_program(pick) -> str:
    """A random straight-line Glue script over EDB ``e0/2``, ``e1/2``,
    ``n/1``, ``t/3``: ``:=``, ``+=`` and ``-=`` assignments to ``g0/2``, ``g1/2``,
    ``g2/1``, aggregates, HiLog ``names(P) & P(X, Y)``, ``repeat ... until
    unchanged(..)`` and ``until empty(..)`` loops, NAIL! views over
    ``g0`` and ``g1`` (a join, a negation, an aggregate) and the
    compound-valued ``c/2``."""
    draw = _Draw(pick)
    readable = dict(EDB)
    lines = []
    if draw.chance(2):
        for name, (arity, rule) in VIEWS.items():
            lines.append(rule)
            readable[name] = arity
    if draw.chance(2):
        lines += COMPOUND_RULES
        readable["c"] = 2
    for _ in range(draw.pick(2, 5)):
        name = draw.choice(sorted(GLUE_RELS))
        arity = GLUE_RELS[name]
        shape = draw.pick(0, 9)
        if shape == 0 and arity == 2:
            lines += [
                f"{name}(X, Y) := e0(X, Y).",
                "repeat",
                f"  {name}(X, Z) += {name}(X, Y) & {draw.choice(['e0', 'e1'])}(Y, Z).",
                f"until unchanged({name}(_, _));",
            ]
        elif shape == 1 and arity == 2:
            lines += [
                "f(X, Y) := e0(X, Y).",
                f"{name}(X, Y) := f(X, Y).",
                "repeat",
                f"  f(X, Z) := f(X, Y) & e1(Y, Z) & !{name}(X, Z).",
                f"  {name}(X, Y) += f(X, Y).",
                "until empty(f(_, _));",
            ]
        else:
            bound: list = []
            body = [draw.literal(readable, bound) for _ in range(draw.pick(1, 3))]
            if shape == 3:
                body += ["names(P)", "P(X, Y)"]
                bound += [v for v in ("X", "Y") if v not in bound]
            if not bound:
                body.append("e0(X, Y)")
                bound += ["X", "Y"]
            body += draw.filters(bound, readable, arithmetic=True)
            op = draw.choice([":=", ":=", "+=", "-="])
            if shape == 2:
                tail, args = draw.aggregate(bound, arity)
                lines.append(f"{name}({', '.join(args)}) {op} {' & '.join(body + tail)}.")
            else:
                lines.append(f"{draw.head(name, arity, bound)} {op} {' & '.join(body)}.")
        readable[name] = arity
    return "\n".join(lines)


def random_facts(pick) -> dict:
    """An EDB for both generators: small integers (one of them sometimes
    the float ``2.0``), and ``names`` listing predicates for ``P(X, Y)``."""
    draw = _Draw(pick)

    def value():
        return 2.0 if draw.chance(12) else draw.pick(-2, 5)

    return {
        "e0": [(value(), value()) for _ in range(draw.pick(0, 12))],
        "e1": [(value(), value()) for _ in range(draw.pick(0, 12))],
        "n": [(value(),) for _ in range(draw.pick(0, 5))],
        "t": [(value(), value(), value()) for _ in range(draw.pick(0, 8))],
        "names": [(draw.choice(NAMES),) for _ in range(draw.pick(0, 3))],
    }
