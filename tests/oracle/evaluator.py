"""A reference semantics for Glue-Nail on stdlib ``sqlite3``.

It shares only the parser (``repro.lang``) and the term printer with the
product, so a bug in the product's stratifier, planner, join code,
aggregate functions or storage cannot agree with itself here.

Layout: one table per arity, ``rel_n(pred, c1..cn, d)``.  Every value is
one canonical text -- the printed term, with integral floats printed as
integers -- so ``2`` and ``2.0`` are one value, as they are one term.  A
HiLog predicate variable is then an ordinary join column over ``pred``
(the set-of-names reading), and a compound value is its printed text,
compared for equality.  ``d`` is 1 for rows derived by NAIL! rules.

NAIL! rules are stratified by the oracle's own SCC pass over predicate
skeletons and evaluated by a naive fixpoint per stratum, re-derived
before every Glue statement ("computed on demand using the current value
of the EDB").  Glue runs the top-level ``:=``, ``+=``, ``-=`` and
``repeat ... until`` statements in order.  Aggregates range over the
distinct bindings of the named variables bound before them.

Arithmetic and comparison go through Python functions registered with
``create_function``, so SQLite's type affinity never decides an answer:

===========  ==============================================================
``+ - *``    numbers only; int with int stays int
``/``        by zero is an error; int by int stays int when exact
``mod``      by zero is an error; the sign follows the divisor
NaN          any NaN result (``inf - inf``, ``inf * 0``, a sum of ``inf``
             and ``-inf``) is an error: NaN is not a value
``= !=``     equality of canonical text
``< <= ...`` numbers numerically, atoms by name, numbers before atoms;
             ordering compound terms is outside the fragment
aggregates   ``count sum product mean min max`` over distinct bindings;
             a sum is exact over integers, correctly rounded over floats
===========  ==============================================================

Anything else -- procedures, ``+=[K]``, body calls, disjunctions, builtin
functions, ``arbitrary`` / ``std_dev``, a variable only a compound pattern
binds -- raises :class:`Outside`, which callers count as a skip.
"""

from __future__ import annotations

import math
import operator
import re
import sqlite3
from fractions import Fraction

from repro.lang.ast import (
    AggCall, AssignStmt, BinOp, CompareSubgoal, EdbDecl, EmptyCond, GroupBySubgoal,
    PredSubgoal, RepeatStmt, RuleDecl, UnaryOp, UnchangedCond, Var,
)
from repro.lang.parser import parse_program
from repro.terms.printer import term_to_str

ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "mod": operator.mod}
BOOLS = ("true", "false")
FLIP = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}
_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*\Z|'(?:[^'\\]|\\.)*'\Z", re.S)


class Outside(Exception):
    """The program is outside the oracle's fragment: skip it, and count it."""


class OracleError(Exception):
    """A runtime error of the program (the product must fail too)."""


# ------------------------------------------------------------------ values


def num_text(value) -> str:
    if value != value:
        raise OracleError("NaN is not a value")
    if isinstance(value, float):
        if value in (float("inf"), float("-inf")):
            return "1e999" if value > 0 else "-1e999"
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)


def canon(term) -> str:
    """The canonical text of a ground term."""
    if isinstance(term, Var):
        raise Outside(f"variable {term.name} where a value is needed")
    if hasattr(term, "args"):
        return f"{canon(term.functor)}({', '.join(canon(a) for a in term.args)})"
    if hasattr(term, "value"):
        return num_text(term.value)
    return term_to_str(term)


def number(text: str):
    if text[0] not in "-0123456789":
        raise OracleError(f"{text} is not a number")
    return float(text) if any(c in text for c in ".eE") else int(text)


def order_key(text: str):
    if text[0] in "-0123456789":
        return (0, number(text))
    if _ATOM.match(text):
        if text[0] != "'":
            return (1, text)
        return (1, re.sub(r"\\(.)", lambda m: {"n": "\n", "r": "\r", "t": "\t"}.get(
            m.group(1), m.group(1)), text[1:-1]))
    raise Outside("ordering compound terms")


def arith(op: str, left: str, right: str) -> str:
    a, b = number(left), number(right)
    if op in ("/", "mod") and b == 0:
        raise OracleError(f"{op} by zero")
    if op == "/" and isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return num_text(a // b)
    return num_text(ARITHMETIC[op](a, b))


def compare(op: str, left: str, right: str) -> int:
    if op in ("=", "!="):
        return (left == right) == (op == "=")
    a, b = order_key(left), order_key(right)
    return {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}[op]


def exact_sum(values):
    if all(isinstance(v, int) for v in values):
        return sum(values)
    try:
        return math.fsum(values)
    except ValueError:
        raise OracleError("inf and -inf in one sum") from None


def _product(values):
    """Exact; a product with a finite float factor is rounded once
    (``Fraction`` to ``float`` rounds correctly), whatever the order.  An
    infinite factor gives NaN beside a zero, else an infinity signed by
    the product of the factors' signs."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return math.prod(values)
    if not all(isinstance(v, int) or math.isfinite(v) for v in values):
        if 0 in values:
            return math.nan
        return math.copysign(math.inf, math.prod(math.copysign(1, v) for v in values))
    return float(math.prod(map(Fraction, values)))


AGGREGATES = {
    "count": lambda texts: num_text(len(texts)),
    "sum": lambda texts: num_text(exact_sum([number(t) for t in texts])),
    "product": lambda texts: num_text(_product(number(t) for t in texts)),
    "mean": lambda texts: num_text(exact_sum([number(t) for t in texts]) / len(texts)),
    "min": lambda texts: min(texts, key=order_key),
    "max": lambda texts: max(texts, key=order_key),
}


def has_agg(expr) -> bool:
    if isinstance(expr, AggCall):
        return True
    if isinstance(expr, BinOp):
        return has_agg(expr.left) or has_agg(expr.right)
    return isinstance(expr, UnaryOp) and has_agg(expr.operand)


def skeleton(pred) -> str:
    """The stratification key of a predicate name: compound arguments erased."""
    if isinstance(pred, Var):
        raise Outside("variable functor")
    if hasattr(pred, "args"):
        return f"{skeleton(pred.functor)}({','.join('_' for _ in pred.args)})"
    return term_to_str(pred)


def sql_text(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


# ---------------------------------------------------------------- evaluator


class Oracle:
    """Load facts and source, run the script, read relations as text rows."""

    def __init__(self, max_iterations: int = 100):
        self.db = sqlite3.connect(":memory:")
        self.max_iterations = max_iterations
        self.arities: set = set()
        self.rules: list = []
        self.script: list = []
        self.strata = None
        self.unchanged: dict = {}
        self.failure = None
        self.db.create_function("ar", 3, self._guard(arith), deterministic=True)
        self.db.create_function("cmp", 3, self._guard(compare), deterministic=True)
        for name, fn in AGGREGATES.items():
            self.db.create_aggregate(f"agg_{name}", 1, self._aggregate_class(fn))

    # -- sqlite plumbing: a Python exception inside SQL is re-raised as itself
    def _guard(self, fn):
        def call(*args):
            try:
                return fn(*args)
            except Exception as exc:
                self.failure = exc
                raise
        return call

    def _aggregate_class(self, fn):
        guard = self._guard(fn)

        class Aggregate:
            def __init__(self):
                self.texts = []

            def step(self, text):
                self.texts.append(text)

            def finalize(self):
                return guard(self.texts) if self.texts else None
        return Aggregate

    def _sql(self, sql: str, params=()):
        try:
            return self.db.execute(sql, params).fetchall()
        except sqlite3.Error:
            failure, self.failure = self.failure, None
            raise failure or OracleError(sql)

    def _table(self, arity: int) -> str:
        if arity not in self.arities:
            cols = "".join(f", c{i} TEXT" for i in range(1, arity + 1))
            keys = "".join(f", c{i}" for i in range(1, arity + 1))
            self.db.execute(f"CREATE TABLE rel_{arity} (pred TEXT{cols}, d INTEGER,"
                            f" PRIMARY KEY (pred{keys}))")
            self.arities.add(arity)
        return f"rel_{arity}"

    # -- public surface
    def facts(self, name, rows) -> None:
        """Insert EDB rows (tuples of ground terms) into ``name``."""
        for row in rows:
            self._write("+=", [canon(name), *map(canon, row)])

    def load(self, source: str) -> None:
        program = parse_program(source)
        if program.modules:
            raise Outside("modules")
        for item in program.items:
            if isinstance(item, RuleDecl):
                self.rules.append(item)
                self.strata = None
            elif isinstance(item, (AssignStmt, RepeatStmt)):
                self.script.append(item)
            elif not isinstance(item, EdbDecl):
                raise Outside(type(item).__name__)

    def run_script(self) -> None:
        for stmt in self.script:
            self._statement(stmt)

    def rows(self, name, arity: int) -> set:
        self._derive()
        cols = ", ".join(f"c{i}" for i in range(1, arity + 1)) or "1"
        found = self._sql(f"SELECT {cols} FROM {self._table(arity)} WHERE pred = ?",
                          (canon(name),))
        return {row if arity else () for row in found}

    # -- NAIL!
    def _derive(self) -> None:
        if self.strata is None:
            self.strata = [[self._rule_sql(r) for r in rules] for rules in self._stratify()]
        for arity in list(self.arities):
            self.db.execute(f"DELETE FROM rel_{arity} WHERE d = 1")
        for stratum in self.strata:
            for _ in range(self.max_iterations):
                before = self.db.total_changes
                for sql in stratum:
                    self._sql(sql)
                if self.db.total_changes == before:
                    break
            else:
                raise OracleError("NAIL! fixpoint did not converge")

    def _stratify(self):
        heads: dict = {}
        for rule in self.rules:
            heads.setdefault((skeleton(rule.head_pred), len(rule.head_args)), []).append(rule)
        deps = {key: set() for key in heads}
        strict = set()
        for rule in self.rules:
            head = (skeleton(rule.head_pred), len(rule.head_args))
            aggregates = any(isinstance(g, CompareSubgoal) and
                             (has_agg(g.left) or has_agg(g.right)) for g in rule.body)
            for goal in rule.body:
                if not isinstance(goal, PredSubgoal):
                    continue
                arity = len(goal.args)
                keys = ([k for k in heads if k[1] == arity] if isinstance(goal.pred, Var)
                        else [(skeleton(goal.pred), arity)])
                for key in keys:
                    if key in heads:
                        deps[head].add(key)
                        if goal.negated or aggregates:
                            strict.add((head, key))
        components = _components(deps)
        for comp in components:
            if any((a, b) in strict for a in comp for b in comp):
                raise Outside("not stratified")
        return [[rule for key in comp for rule in heads[key]] for comp in components]

    def _rule_sql(self, rule: RuleDecl) -> str:
        sql, defs = self._body(rule.body)
        head = [self._expr(t, defs) for t in (rule.head_pred, *rule.head_args)]
        return (f"INSERT OR IGNORE INTO {self._table(len(rule.head_args))} "
                f"SELECT DISTINCT {', '.join(head)}, 1 FROM ({sql}) AS s")

    # -- Glue
    def _statement(self, stmt) -> None:
        if isinstance(stmt, RepeatStmt):
            for _ in range(self.max_iterations):
                for inner in stmt.body:
                    self._statement(inner)
                if any(self._holds(alt) for alt in stmt.until.alternatives):
                    return
            raise OracleError("repeat did not terminate")
        if stmt.op not in (":=", "+=", "-=") or stmt.head_bound is not None:
            raise Outside(f"assignment {stmt.op}")
        name, arity = stmt.head_pred, len(stmt.head_args)
        views = {(skeleton(r.head_pred), len(r.head_args)) for r in self.rules}
        if not name.is_ground or (skeleton(name), arity) in views:
            raise Outside("Glue head that is not a stored relation")
        self._derive()
        sql, defs = self._body(stmt.body)
        head = ", ".join(self._expr(t, defs) for t in (name, *stmt.head_args))
        rows = self._sql(f"SELECT DISTINCT {head} FROM ({sql}) AS s")
        if stmt.op == ":=":
            self._sql(f"DELETE FROM {self._table(arity)} WHERE pred = ?", (canon(name),))
        for row in rows:
            self._write("-=" if stmt.op == "-=" else "+=", row)

    def _write(self, op: str, row) -> None:
        table = self._table(len(row) - 1)
        if op == "+=":
            marks = ", ".join("?" * len(row))
            self._sql(f"INSERT OR IGNORE INTO {table} VALUES ({marks}, 0)", tuple(row))
        else:
            cols = " AND ".join(f"c{i} = ?" for i in range(1, len(row)))
            self._sql(f"DELETE FROM {table} WHERE pred = ?{' AND ' if cols else ''}{cols}",
                      tuple(row))

    def _holds(self, conjunction) -> bool:
        if any(isinstance(g, UnchangedCond) for g in conjunction):
            if len(conjunction) != 1:
                raise Outside("unchanged() beside other conditions")
            goal = conjunction[0]
            now = frozenset(self.rows(goal.pred, goal.arity))
            before, self.unchanged[id(goal)] = self.unchanged.get(id(goal)), now
            return before == now
        self._derive()
        sql, _ = self._body(conjunction)
        return bool(self._sql(f"SELECT 1 FROM ({sql}) LIMIT 1"))

    # -- bodies to SQL
    def _body(self, body):
        """``(sql, defs)``: a SELECT DISTINCT over the named variables the
        body binds, and each variable's column in it (as ``s."v_X"``)."""
        stage, segment, groups = None, [], []
        for goal in body:
            if isinstance(goal, GroupBySubgoal):
                groups.extend(goal.terms)
            elif isinstance(goal, CompareSubgoal) and (has_agg(goal.left) or has_agg(goal.right)):
                stage = self._aggregate(self._stage(stage, segment), goal, groups)
                segment = []
            else:
                segment.append(goal)
        sql, names = self._stage(stage, segment)
        return sql, {n: f's."v_{n}"' for n in names}

    def _select(self, defs, tables, where):
        names = sorted(defs)
        cols = ", ".join(f'{defs[n]} AS "v_{n}"' for n in names) or "1 AS one"
        sql = f"SELECT DISTINCT {cols} FROM {', '.join(tables) or '(SELECT 1)'}"
        return (sql + (" WHERE " + " AND ".join(where) if where else "")), names

    def _stage(self, prev, goals):
        tables, defs, pending, negated, compares, where = [], {}, [], [], [], []
        if prev is not None:
            tables.append(f"({prev[0]}) AS s")
            defs = {n: f's."v_{n}"' for n in prev[1]}
        for i, goal in enumerate(goals):
            if isinstance(goal, PredSubgoal) and not goal.args and str(goal.pred) in BOOLS:
                where += [] if (str(goal.pred) == "true") != goal.negated else ["0"]
            elif isinstance(goal, PredSubgoal) and not goal.negated:
                tables.append(f"{self._table(len(goal.args))} AS t{i}")
                for term, col in zip((goal.pred, *goal.args), _columns(f"t{i}", goal.args)):
                    if isinstance(term, Var) and term.is_anonymous:
                        continue  # each `_` is a distinct wildcard
                    if isinstance(term, Var) and term.name not in defs:
                        defs[term.name] = col
                    else:
                        pending.append((term, col))
            elif isinstance(goal, (PredSubgoal, EmptyCond)):
                negated.append(goal)
            elif isinstance(goal, CompareSubgoal):
                compares.append(goal)
            else:
                raise Outside(type(goal).__name__)
        while True:  # `X = expr` (or `expr = X`) binds X once expr is defined
            binder = next(((goal, var, expr) for goal in compares if goal.op == "="
                           for var, expr in ((goal.left, goal.right), (goal.right, goal.left))
                           if isinstance(var, Var) and var.name not in defs
                           and _defined(expr, defs)), None)
            if binder is None:
                break
            goal, var, expr = binder
            defs[var.name] = self._expr(expr, defs)
            compares.remove(goal)
        where += [f"{col} = {self._expr(term, defs)}" for term, col in pending]
        where += [f"cmp('{g.op}', {self._expr(g.left, defs)}, {self._expr(g.right, defs)})"
                  for g in compares]
        where += [self._absent(i, goal, defs) for i, goal in enumerate(negated)]
        return self._select(defs, tables, where)

    def _absent(self, i: int, goal, defs) -> str:
        local, where = {}, []
        for term, col in zip((goal.pred, *goal.args), _columns(f"n{i}", goal.args)):
            if isinstance(term, Var) and term.is_anonymous:
                continue
            if isinstance(term, Var) and term.name not in defs and term.name not in local:
                local[term.name] = col
            else:
                where.append(f"{col} = {self._expr(term, {**defs, **local})}")
        table = self._table(len(goal.args))
        return f"NOT EXISTS (SELECT 1 FROM {table} AS n{i} WHERE {' AND '.join(where) or 1})"

    def _aggregate(self, prev, goal: CompareSubgoal, groups):
        left, op, agg = goal.left, goal.op, goal.right
        if has_agg(left):
            left, op, agg = agg, FLIP[op], left
        if not isinstance(agg, AggCall) or has_agg(left) or agg.op not in AGGREGATES:
            raise Outside("aggregate form")
        sql, names = prev
        defs = {n: f's."v_{n}"' for n in names}
        keys = [self._expr(t, defs) for t in groups]
        inner = (f"SELECT {''.join(f'{k} AS g{i}, ' for i, k in enumerate(keys))}"
                 f"agg_{agg.op}({self._expr(agg.arg, defs)}) AS a FROM ({sql}) AS s"
                 + (f" GROUP BY {', '.join(keys)}" if keys else ""))
        where = [f"{k} = g.g{i}" for i, k in enumerate(keys)]
        if isinstance(left, Var) and left.name not in defs:
            defs[left.name] = "g.a"
        else:
            where.append(f"cmp('{op}', {self._expr(left, defs)}, g.a)")
        return self._select(defs, [f"({sql}) AS s", f"({inner}) AS g"], where)

    def _expr(self, expr, defs) -> str:
        if isinstance(expr, Var):
            if expr.name not in defs:
                raise Outside(f"{expr.name} is not bound by the body")
            return defs[expr.name]
        if isinstance(expr, BinOp):
            return f"ar('{expr.op}', {self._expr(expr.left, defs)}, {self._expr(expr.right, defs)})"
        if isinstance(expr, UnaryOp):
            return f"ar('-', '0', {self._expr(expr.operand, defs)})"
        if hasattr(expr, "functor") and not expr.is_ground:
            args = " || ', ' || ".join(self._expr(a, defs) for a in expr.args)
            return f"({self._expr(expr.functor, defs)} || '(' || {args} || ')')"
        if not hasattr(expr, "is_ground"):
            raise Outside(type(expr).__name__)
        return sql_text(canon(expr))


def _columns(alias: str, args):
    return [f"{alias}.pred"] + [f"{alias}.c{i}" for i in range(1, len(args) + 1)]


def _defined(expr, defs) -> bool:
    if isinstance(expr, Var):
        return expr.name in defs
    if isinstance(expr, BinOp):
        return _defined(expr.left, defs) and _defined(expr.right, defs)
    if isinstance(expr, UnaryOp):
        return _defined(expr.operand, defs)
    if hasattr(expr, "functor"):
        return _defined(expr.functor, defs) and all(_defined(a, defs) for a in expr.args)
    return not isinstance(expr, AggCall)


def _components(deps):
    """Tarjan's strongly connected components, dependencies first."""
    index, low, stack, on_stack, out = {}, {}, [], set(), []

    def visit(node):
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        for succ in sorted(deps[node]):
            if succ not in index:
                visit(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index[succ])
        if low[node] == index[node]:
            comp = []
            while not comp or comp[-1] != node:
                comp.append(stack.pop())
                on_stack.discard(comp[-1])
            out.append(comp)

    for node in sorted(deps):
        if node not in index:
            visit(node)
    return out
