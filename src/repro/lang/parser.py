"""Recursive-descent parser for the Glue-Nail surface language.

The grammar is reconstructed from the paper's examples (Sections 3-7 and
Figure 1).  One parser covers both languages: a head followed by ``:-`` is
a NAIL! rule, a head followed by ``:=``/``+=``/``-=``/``+=[keys]`` is a
Glue assignment statement.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.lang.ast import (
    AggCall,
    AssignStmt,
    BinOp,
    CompareSubgoal,
    CondDisjunction,
    EdbDecl,
    EmptyCond,
    ExportDecl,
    FunCall,
    GroupBySubgoal,
    ImportDecl,
    ModuleDecl,
    PredSig,
    PredSubgoal,
    ProcDecl,
    Program,
    RepeatStmt,
    RuleDecl,
    UnaryOp,
    UnchangedCond,
    UnionSubgoal,
    UpdateSubgoal,
    WatchDecl,
)
from repro.lang.lexer import tokenize
from repro.lang.tokens import AGGREGATE_OPS, BUILTIN_FUNCTIONS, Token, TokenKind
from repro.terms.term import Atom, Compound, Num, Term, Var

_RELOPS = ("=", "!=", "<", ">", "<=", ">=")
_ASSIGN_OPS = (":=", "+=", "-=")


from repro.errors import CompileError


class ParseError(CompileError):
    def __init__(self, message: str, token: Optional[Token] = None):
        if token is not None:
            message = f"{token.line}:{token.column}: {message}"
        super().__init__(message)
        self.token = token


class _Apply:
    """Private parse node: a (possibly zero-argument) predicate application.

    ``base`` is the applied term *without* the final argument list, and
    ``args`` the final argument list; a chain ``students(ID)(Name)`` parses
    to base=students(ID), args=(Name,).  Zero-argument applications are only
    legal as subgoals/heads, never inside expressions.
    """

    __slots__ = ("base", "args")

    def __init__(self, base: Term, args: Tuple[Term, ...]):
        self.base = base
        self.args = args

    def to_term(self) -> Term:
        if not self.args:
            raise ParseError("zero-argument application is not a term")
        return Compound(self.base, self.args)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------ #
    # token helpers
    # ------------------------------------------------------------------ #

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def expect_punct(self, text: str) -> None:
        if not self.accept_punct(text):
            token = self.current
            raise ParseError(f"expected {text!r}, found {token.describe()}", token)

    def accept_punct(self, text: str) -> bool:
        token = self.tokens[self.pos]
        if token.kind is TokenKind.PUNCT and token.value == text:
            self.pos += 1  # a PUNCT token is never the final EOF
            return True
        return False

    def expect_name(self, text: Optional[str] = None) -> str:
        token = self.current
        if token.kind is not TokenKind.NAME:
            raise ParseError(f"expected a name, found {token.describe()}", token)
        if text is not None and token.value != text:
            raise ParseError(f"expected {text!r}, found {token.describe()}", token)
        self.advance()
        return token.value

    def accept_name(self, text: str) -> bool:
        if self.current.is_name(text):
            self.advance()
            return True
        return False

    def at_eof(self) -> bool:
        return self.current.kind is TokenKind.EOF

    # ------------------------------------------------------------------ #
    # programs and modules
    # ------------------------------------------------------------------ #

    def parse_program(self) -> Program:
        modules: List[ModuleDecl] = []
        items: List[object] = []
        while not self.at_eof():
            if self.current.is_name("module"):
                modules.append(self.parse_module())
            else:
                items.append(self._parse_item())
        return Program(modules=tuple(modules), items=tuple(items))

    def parse_module(self) -> ModuleDecl:
        self.expect_name("module")
        name = self.expect_name()
        self.expect_punct(";")
        items: List[object] = []
        while True:
            if self.at_eof():
                raise ParseError(f"module {name}: missing final 'end'", self.current)
            if self.current.is_name("end") and not self._looks_like_head_start(self.peek()):
                self.advance()
                self.accept_punct(".")
                break
            items.append(self._parse_item())
        return ModuleDecl(name=name, items=tuple(items))

    @staticmethod
    def _looks_like_head_start(token: Token) -> bool:
        # ``end`` at item position terminates the module; an ``end(`` would
        # be a predicate named end, which we do not allow.
        return token.is_punct("(")

    def _parse_item(self):
        token = self.current
        if token.kind is TokenKind.NAME:
            if token.value == "export":
                return self._parse_export()
            if token.value == "from":
                return self._parse_import()
            if token.value == "edb":
                return self._parse_edb()
            if token.value in ("proc", "procedure"):
                return self._parse_proc()
            if token.value in ("repeat",):
                return self._parse_repeat()
            if token.value == "watch" and not self.peek().is_punct("("):
                # ``watch(`` would be a predicate named watch; the keyword
                # is contextual, like ``end``.
                return self._parse_watch()
        return self._parse_rule_or_statement()

    def _parse_export(self) -> ExportDecl:
        self.expect_name("export")
        sigs = [self._parse_pred_sig()]
        while self.accept_punct(","):
            sigs.append(self._parse_pred_sig())
        self.expect_punct(";")
        return ExportDecl(sigs=tuple(sigs))

    def _parse_import(self) -> ImportDecl:
        self.expect_name("from")
        module = self.expect_name()
        self.expect_name("import")
        sigs = [self._parse_pred_sig()]
        while self.accept_punct(","):
            sigs.append(self._parse_pred_sig())
        self.expect_punct(";")
        return ImportDecl(module=module, sigs=tuple(sigs))

    def _parse_watch(self) -> WatchDecl:
        """``watch pred(Args...) call [module.]proc;`` -- an active rule."""
        start = self.current
        self.expect_name("watch")
        head = self._parse_head()
        if head.bound is not None:
            raise ParseError("watch heads cannot use ':'", start)
        self.expect_name("call")
        module: Optional[str] = None
        name = self.expect_name()
        if self.current.is_punct("."):
            self.advance()
            module = name
            name = self.expect_name()
        self.expect_punct(";")
        return WatchDecl(
            pred=head.pred,
            args=head.args,
            proc=name,
            module=module,
            line=start.line,
        )

    def _parse_edb(self) -> List[EdbDecl]:
        """``edb a(X, Y), b(Z);`` -- returns a list; the caller flattens."""
        self.expect_name("edb")
        decls = [self._parse_edb_item()]
        while self.accept_punct(","):
            decls.append(self._parse_edb_item())
        self.expect_punct(";")
        # A single edb keyword may declare several relations; we return a
        # tuple wrapped in ExportDecl-like fashion is unnecessary -- the
        # module item list simply holds each EdbDecl.
        if len(decls) == 1:
            return decls[0]
        return _EdbGroup(tuple(decls))

    def _parse_edb_item(self) -> EdbDecl:
        name = self.expect_name()
        attrs: List[str] = []
        self.expect_punct("(")
        if not self.accept_punct(")"):
            attrs.append(self._expect_attr_name())
            while self.accept_punct(","):
                attrs.append(self._expect_attr_name())
            self.expect_punct(")")
        return EdbDecl(name=name, attrs=tuple(attrs))

    def _expect_attr_name(self) -> str:
        token = self.current
        if token.kind in (TokenKind.VARIABLE, TokenKind.NAME):
            self.advance()
            return str(token.value)
        raise ParseError(f"expected attribute name, found {token.describe()}", token)

    def _parse_pred_sig(self) -> PredSig:
        name = self.expect_name()
        bound: List[str] = []
        free: List[str] = []
        self.expect_punct("(")
        seen_colon = False
        while not self.current.is_punct(")"):
            if self.accept_punct(":"):
                if seen_colon:
                    raise ParseError("duplicate ':' in signature", self.current)
                seen_colon = True
                continue
            token = self.current
            if token.kind not in (TokenKind.VARIABLE, TokenKind.NAME):
                raise ParseError(
                    f"expected argument name in signature, found {token.describe()}", token
                )
            self.advance()
            (free if seen_colon else bound).append(str(token.value))
            if self.current.is_punct(","):
                self.advance()
        self.expect_punct(")")
        if not seen_colon:
            # No colon: treat every argument as free (a pure result
            # signature); EDB imports use this form.
            free = bound + free
            bound = []
        return PredSig(name=name, bound=tuple(bound), free=tuple(free))

    # ------------------------------------------------------------------ #
    # procedures
    # ------------------------------------------------------------------ #

    def _parse_proc(self) -> ProcDecl:
        start = self.current
        if not (self.accept_name("proc") or self.accept_name("procedure")):
            raise ParseError("expected 'proc' or 'procedure'", self.current)
        name = self.expect_name()
        bound, free = self._parse_param_list()
        locals_: List[EdbDecl] = []
        while self.current.is_name("rels"):
            self.advance()
            locals_.append(self._parse_edb_item())
            while self.accept_punct(","):
                locals_.append(self._parse_edb_item())
            self.expect_punct(";")
        body: List[object] = []
        while not self.current.is_name("end"):
            if self.at_eof():
                raise ParseError(f"procedure {name}: missing 'end'", self.current)
            body.append(self._parse_statement())
        self.expect_name("end")
        self.accept_punct(".")
        return ProcDecl(
            name=name,
            bound_params=tuple(bound),
            free_params=tuple(free),
            locals=tuple(locals_),
            body=tuple(body),
            line=start.line,
        )

    def _parse_param_list(self) -> Tuple[List[Var], List[Var]]:
        self.expect_punct("(")
        bound: List[Var] = []
        free: List[Var] = []
        seen_colon = False
        while not self.current.is_punct(")"):
            if self.accept_punct(":"):
                if seen_colon:
                    raise ParseError("duplicate ':' in parameter list", self.current)
                seen_colon = True
                continue
            token = self.current
            if token.kind is not TokenKind.VARIABLE:
                raise ParseError(
                    f"expected parameter variable, found {token.describe()}", token
                )
            self.advance()
            (free if seen_colon else bound).append(Var(token.value))
            if self.current.is_punct(","):
                self.advance()
        self.expect_punct(")")
        if not seen_colon:
            raise ParseError("procedure parameter list needs a ':'", self.current)
        return bound, free

    # ------------------------------------------------------------------ #
    # statements and rules
    # ------------------------------------------------------------------ #

    def _parse_statement(self):
        if self.current.is_name("repeat"):
            return self._parse_repeat()
        stmt = self._parse_rule_or_statement()
        if isinstance(stmt, RuleDecl):
            raise ParseError("NAIL! rules are not allowed inside procedures", self.current)
        return stmt

    def _parse_repeat(self) -> RepeatStmt:
        start = self.current
        self.expect_name("repeat")
        body: List[object] = []
        while not self.current.is_name("until"):
            if self.at_eof():
                raise ParseError("repeat: missing 'until'", self.current)
            body.append(self._parse_statement())
        self.expect_name("until")
        until = self._parse_until_condition()
        self.expect_punct(";")
        return RepeatStmt(body=tuple(body), until=until, line=start.line)

    def _parse_until_condition(self) -> CondDisjunction:
        if self.accept_punct("{"):
            alternatives = [self._parse_cond_conjunction(stop=("|", "}"))]
            while self.accept_punct("|"):
                alternatives.append(self._parse_cond_conjunction(stop=("|", "}")))
            self.expect_punct("}")
            return CondDisjunction(alternatives=tuple(alternatives))
        return CondDisjunction(alternatives=(self._parse_cond_conjunction(stop=(";",)),))

    def _parse_cond_conjunction(self, stop: Tuple[str, ...]) -> Tuple[object, ...]:
        subgoals = [self._parse_subgoal()]
        while self.accept_punct("&"):
            subgoals.append(self._parse_subgoal())
        token = self.current
        if not any(token.is_punct(s) for s in stop):
            raise ParseError(
                f"expected one of {stop} after condition, found {token.describe()}", token
            )
        return tuple(subgoals)

    def _parse_rule_or_statement(self):
        start = self.current
        head = self._parse_head()
        token = self.current
        if token.is_punct("."):
            # A unit clause ``head.`` -- a NAIL! fact schema (ground unit
            # clauses are plain facts; ones with variables, like the
            # paper's ``tc(E, X, X).``, need demand bindings to evaluate).
            self.advance()
            if head.bound is not None:
                raise ParseError("unit clauses cannot use ':'", start)
            return RuleDecl(
                head_pred=head.pred,
                head_args=head.args,
                body=(PredSubgoal(pred=Atom("true"), args=()),),
                line=start.line,
            )
        if token.is_punct(":-"):
            self.advance()
            body = self._parse_body()
            self.expect_punct(".")
            if head.bound is not None:
                raise ParseError("NAIL! rule heads cannot use ':'", start)
            return RuleDecl(
                head_pred=head.pred, head_args=head.args, body=body, line=start.line
            )
        op = None
        keys: Tuple[Var, ...] = ()
        for candidate in _ASSIGN_OPS:
            if token.is_punct(candidate):
                op = candidate
                self.advance()
                break
        if op is None:
            raise ParseError(
                f"expected ':-', ':=', '+=' or '-=', found {token.describe()}", token
            )
        if op == "+=" and self.current.is_punct("["):
            self.advance()
            key_vars: List[Var] = []
            while not self.current.is_punct("]"):
                key_token = self.current
                if key_token.kind is not TokenKind.VARIABLE:
                    raise ParseError(
                        f"expected key variable, found {key_token.describe()}", key_token
                    )
                self.advance()
                key_vars.append(Var(key_token.value))
                if self.current.is_punct(","):
                    self.advance()
            self.expect_punct("]")
            op = "modify"
            keys = tuple(key_vars)
        body = self._parse_body()
        self.expect_punct(".")
        return AssignStmt(
            head_pred=head.pred,
            head_args=head.args,
            op=op,
            body=body,
            keys=keys,
            head_bound=head.bound,
            line=start.line,
        )

    class _Head:
        __slots__ = ("pred", "args", "bound")

        def __init__(self, pred: Term, args: Tuple[Term, ...], bound: Optional[int]):
            self.pred = pred
            self.args = args
            self.bound = bound

    def _parse_head(self) -> "_Parser._Head":
        """Parse a head: an applied term whose final argument list may use a
        ``:`` separator (``return(X:Y)``)."""
        base = self._parse_primary_term()
        applications: List[Tuple[Tuple[Term, ...], Optional[int]]] = []
        while self.current.is_punct("("):
            applications.append(self._parse_head_arglist())
        if not applications:
            raise ParseError("a head must be a predicate application", self.current)
        pred = base
        for args, bound in applications[:-1]:
            if bound is not None:
                raise ParseError("':' is only allowed in the final argument list")
            if not args:
                raise ParseError("inner application needs arguments")
            pred = Compound(pred, args)
        final_args, final_bound = applications[-1]
        return self._Head(pred=pred, args=final_args, bound=final_bound)

    def _parse_head_arglist(self) -> Tuple[Tuple[Term, ...], Optional[int]]:
        self.expect_punct("(")
        args: List[Term] = []
        bound: Optional[int] = None
        while not self.current.is_punct(")"):
            if self.accept_punct(":"):
                if bound is not None:
                    raise ParseError("duplicate ':' in head", self.current)
                bound = len(args)
                continue
            args.append(self._parse_data_term())
            if self.current.is_punct(","):
                self.advance()
        self.expect_punct(")")
        return tuple(args), bound

    def _parse_body(self) -> Tuple[object, ...]:
        subgoals = [self._parse_subgoal()]
        while self.accept_punct("&"):
            subgoals.append(self._parse_subgoal())
        return tuple(subgoals)

    # ------------------------------------------------------------------ #
    # subgoals
    # ------------------------------------------------------------------ #

    def _parse_subgoal(self):
        token = self.current
        if token.is_punct("{"):
            # Body disjunction: { conj | conj | ... } (footnote 5).
            self.advance()
            alternatives = [self._parse_cond_conjunction(stop=("|", "}"))]
            while self.accept_punct("|"):
                alternatives.append(self._parse_cond_conjunction(stop=("|", "}")))
            self.expect_punct("}")
            return UnionSubgoal(alternatives=tuple(alternatives))
        if token.is_punct("!"):
            self.advance()
            inner = self._parse_subgoal()
            if not isinstance(inner, PredSubgoal):
                raise ParseError("'!' may only negate a predicate subgoal", token)
            if inner.negated:
                raise ParseError("double negation is not supported", token)
            return PredSubgoal(pred=inner.pred, args=inner.args, negated=True)
        if token.is_punct("++") or token.is_punct("--"):
            op = token.value
            self.advance()
            applied = self._parse_applied_or_expr()
            if not isinstance(applied, _Apply):
                raise ParseError("update subgoal needs a predicate application", token)
            pred, args = _split_apply(applied)
            return UpdateSubgoal(op=op, pred=pred, args=args)
        expr = self._parse_applied_or_expr()
        for relop in _RELOPS:
            if self.current.is_punct(relop):
                # Longest-match guard: '<=' lexes as one token, so no issue.
                self.advance()
                left = _expr_of(expr)
                right = _expr_of(self._parse_applied_or_expr())
                return CompareSubgoal(op=relop, left=left, right=right)
        return self._subgoal_from_expr(expr, token)

    def _subgoal_from_expr(self, expr, token: Token):
        if isinstance(expr, _Apply):
            pred, args = _split_apply(expr)
            if isinstance(pred, Atom):
                if pred.name == "group_by":
                    return GroupBySubgoal(terms=args)
                if pred.name == "unchanged":
                    return _make_unchanged(args, token)
                if pred.name == "empty":
                    return _make_empty(args, token)
            return PredSubgoal(pred=pred, args=args)
        if isinstance(expr, Atom) and expr.name in ("true", "false"):
            return PredSubgoal(pred=expr, args=())
        raise ParseError(
            f"expected a subgoal, found expression {expr!r}", token
        )

    # ------------------------------------------------------------------ #
    # terms and expressions
    # ------------------------------------------------------------------ #

    def _parse_data_term(self) -> Term:
        """A data term: no arithmetic, no aggregators (argument position).

        A lone variable, atom or number followed by ``,`` or ``)`` is
        taken directly; anything else climbs the expression ladder."""
        token = self.tokens[self.pos]
        kind = token.kind
        make = (Var if kind is TokenKind.VARIABLE else Atom if kind is TokenKind.NAME
                else Num if kind is TokenKind.NUMBER else None)
        if make is not None:  # a literal is never the final EOF: a follower exists
            follower = self.tokens[self.pos + 1]
            if follower.kind is TokenKind.PUNCT and follower.value in (",", ")"):
                self.pos += 1
                return make(token.value)
        expr = self._parse_applied_or_expr()
        if isinstance(expr, _Apply):
            return expr.to_term()
        if isinstance(expr, Term):
            return expr
        raise ParseError("arithmetic is not allowed in argument position", self.current)

    def _parse_applied_or_expr(self):
        """Parse an expression; a pure predicate application is returned as
        an :class:`_Apply` node so the caller can treat it as a subgoal."""
        return self._parse_additive()

    def _parse_additive(self):
        left = self._parse_multiplicative()
        while (op := self._accept_operator(("+", "-"))) is not None:
            right = self._parse_multiplicative()
            left = BinOp(op=op, left=_expr_of(left), right=_expr_of(right))
        return left

    def _parse_multiplicative(self):
        left = self._parse_unary()
        while (op := self._accept_operator(("*", "/", "mod"))) is not None:
            right = self._parse_unary()
            left = BinOp(op=op, left=_expr_of(left), right=_expr_of(right))
        return left

    def _accept_operator(self, ops: Tuple[str, ...]) -> Optional[str]:
        """Consume and return the current token's text if it is one of the
        binary operators ``ops`` (``mod`` is a name, the rest punctuation)."""
        token = self.tokens[self.pos]
        if token.value in ops and (token.kind is TokenKind.PUNCT or token.is_name("mod")):
            self.pos += 1
            return token.value
        return None

    def _parse_unary(self):
        if self.accept_punct("-"):
            if self.current.kind is TokenKind.NUMBER:
                # A negative literal; it may be a (HiLog) functor: -1(a).
                value = self.current.value
                self.advance()
                return self._parse_applications(Num(-value))
            operand = self._parse_unary()
            if isinstance(operand, Num):
                return Num(-operand.value)
            return UnaryOp(op="-", operand=_expr_of(operand))
        return self._parse_primary()

    def _parse_primary(self):
        token = self.current
        if token.kind is TokenKind.NUMBER:
            self.advance()
            # HiLog allows arbitrary terms as functors, numbers included.
            return self._parse_applications(Num(token.value))
        if token.kind is TokenKind.VARIABLE:
            self.advance()
            base: Term = Var(token.value)
            return self._parse_applications(base)
        if token.kind is TokenKind.NAME:
            name = token.value
            if token.quoted:
                # Quoted names are plain atoms, never builtin functions.
                self.advance()
                return self._parse_applications(Atom(name))
            if name in AGGREGATE_OPS and self.peek().is_punct("("):
                self.advance()
                self.expect_punct("(")
                arg = _expr_of(self._parse_applied_or_expr())
                self.expect_punct(")")
                return AggCall(op=name, arg=arg)
            if name in BUILTIN_FUNCTIONS and self.peek().is_punct("("):
                self.advance()
                self.expect_punct("(")
                args = [_expr_of(self._parse_applied_or_expr())]
                while self.accept_punct(","):
                    args.append(_expr_of(self._parse_applied_or_expr()))
                self.expect_punct(")")
                return FunCall(name=name, args=tuple(args))
            self.advance()
            return self._parse_applications(Atom(name))
        if token.is_punct("("):
            self.advance()
            inner = self._parse_applied_or_expr()
            self.expect_punct(")")
            return _expr_of(inner) if not isinstance(inner, Term) else inner
        raise ParseError(f"unexpected token {token.describe()}", token)

    def _parse_applications(self, base: Term):
        """Parse zero or more application suffixes ``(args)`` after a term."""
        result: object = base
        while self.accept_punct("("):
            args: List[Term] = []
            if not self.accept_punct(")"):
                args.append(self._parse_data_term())
                while self.accept_punct(","):
                    args.append(self._parse_data_term())
                self.expect_punct(")")
            prev_base = result.to_term() if isinstance(result, _Apply) else result
            result = _Apply(base=prev_base, args=tuple(args))
        return result

    def _parse_primary_term(self) -> Term:
        token = self.current
        if token.kind is TokenKind.NAME:
            self.advance()
            return Atom(token.value)
        if token.kind is TokenKind.VARIABLE:
            self.advance()
            return Var(token.value)
        raise ParseError(f"expected a predicate name, found {token.describe()}", token)


class _EdbGroup(tuple):
    """Internal: several EdbDecls introduced by one ``edb`` keyword."""

    def __new__(cls, decls):
        return super().__new__(cls, decls)


def _split_apply(applied: _Apply) -> Tuple[Term, Tuple[Term, ...]]:
    return applied.base, applied.args


def _expr_of(value):
    """Convert a parse result into an expression node (reject zero-arg
    applications, flatten _Apply into compound terms)."""
    if isinstance(value, _Apply):
        return value.to_term()
    return value


def _make_unchanged(args: Tuple[Term, ...], token: Token) -> UnchangedCond:
    if len(args) != 1 or not isinstance(args[0], Compound):
        raise ParseError("unchanged(...) needs a predicate pattern argument", token)
    pattern = args[0]
    return UnchangedCond(pred=pattern.functor, arity=len(pattern.args))


def _make_empty(args: Tuple[Term, ...], token: Token) -> EmptyCond:
    if len(args) != 1 or not isinstance(args[0], Compound):
        raise ParseError("empty(...) needs a predicate application argument", token)
    pattern = args[0]
    return EmptyCond(pred=pattern.functor, args=pattern.args)


# --------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------- #


def _flatten_items(items) -> Tuple[object, ...]:
    out: List[object] = []
    for item in items:
        if isinstance(item, _EdbGroup):
            out.extend(item)
        else:
            out.append(item)
    return tuple(out)


def parse_program(text: str) -> Program:
    parser = _Parser(text)
    program = parser.parse_program()
    modules = tuple(
        ModuleDecl(name=m.name, items=_flatten_items(m.items)) for m in program.modules
    )
    return Program(modules=modules, items=_flatten_items(program.items))


def parse_module(text: str) -> ModuleDecl:
    program = parse_program(text)
    if len(program.modules) != 1 or program.items:
        raise ParseError("expected exactly one module")
    return program.modules[0]


def parse_statement(text: str):
    parser = _Parser(text)
    stmt = parser._parse_statement()
    if not parser.at_eof():
        raise ParseError("trailing input after statement", parser.current)
    return stmt


def parse_rule(text: str) -> RuleDecl:
    parser = _Parser(text)
    item = parser._parse_rule_or_statement()
    if not parser.at_eof():
        raise ParseError("trailing input after rule", parser.current)
    if not isinstance(item, RuleDecl):
        raise ParseError("expected a NAIL! rule (':-')")
    return item


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    term = parser._parse_data_term()
    if not parser.at_eof():
        raise ParseError("trailing input after term", parser.current)
    return term


def parse_query(text: str) -> PredSubgoal:
    """Parse an ad-hoc query ``p(args)?`` (trailing '?' optional)."""
    parser = _Parser(text)
    expr = parser._parse_applied_or_expr()
    parser.accept_punct("?")
    parser.accept_punct(".")
    if not parser.at_eof():
        raise ParseError("trailing input after query", parser.current)
    if not isinstance(expr, _Apply):
        raise ParseError("a query must be a predicate application")
    pred, args = _split_apply(expr)
    return PredSubgoal(pred=pred, args=args)


def parse_ground_fact(text: str) -> Tuple[Term, Tuple[Term, ...]]:
    """Parse one fact line ``name(args).`` into (name term, ground row)."""
    parser = _Parser(text)
    expr = parser._parse_applied_or_expr()
    parser.accept_punct(".")
    if not parser.at_eof():
        raise ParseError("trailing input after fact", parser.current)
    if not isinstance(expr, _Apply):
        raise ParseError("a fact must be a predicate application")
    pred, args = _split_apply(expr)
    from repro.terms.term import is_ground

    if not is_ground(pred) or not all(is_ground(a) for a in args):
        raise ParseError("facts must be ground")
    return pred, args


_REL_DIRECTIVE = re.compile(r"%\s*rel\s+(.+?)\s*/\s*(\d+)\s*\Z")


def parse_directive_rel(line: str) -> Optional[Tuple[Term, int]]:
    """Parse a ``% rel name / arity`` catalog directive, or return None."""
    matched = _REL_DIRECTIVE.match(line.strip())
    if not matched:
        return None
    name = parse_term(matched.group(1))
    return name, int(matched.group(2))
