"""An interactive Glue-Nail read-eval-print loop.

Accepts, line by line (multi-line input accumulates until a terminator):

* facts              ``edge(1, 2).``        -> inserted into the EDB
* NAIL! rules        ``p(X) :- q(X).``      -> added to the rule set
* Glue statements    ``out(X) := q(X).``    -> executed immediately
* procedures/modules ``proc f(X:Y) ... end``-> defined
* queries            ``p(1, X)?``           -> answered and printed
* commands           ``.help .rels .dump p/2 .stats .explain .magic p(1,X)?
                       .save F .load F .quit``

The REPL is line-oriented and stream-based (injectable input/output), so
it is fully testable without a TTY.
"""

from __future__ import annotations

import sys
from typing import List, Optional, TextIO

from repro.core.query import rows_to_python
from repro.core.system import GlueNailSystem
from repro.errors import GlueNailError
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError, parse_program, parse_query
from repro.terms.printer import tuple_to_str

_HELP = """\
Glue-Nail REPL.  Enter facts, rules, Glue statements, procedures or
queries.  Input accumulates until it parses (procedures end with 'end').
  p(1, 2).             insert a fact (ground) / add a unit rule
  p(X) :- q(X).        add a NAIL! rule
  out(X) := q(X).      execute a Glue statement now
  proc f(X:Y) ... end  define a procedure
  f(1, Y)?             query (relations, NAIL! predicates, procedures)
Commands:
  .help                this text
  .rels                list EDB relations
  .dump NAME/ARITY     print a relation's tuples
  .magic QUERY?        answer a query demand-driven
  .explain             show the compiled plans
  .analyze QUERY?      run a query, print the plan with actual rows/costs
  .profile on|off      trace queries (`.last` then shows the trace tree)
  .last                stats (and trace, with .profile on) of the last query
  .stats               cost counters since the last .stats
  .save FILE / .load FILE   EDB persistence
  .begin / .commit / .rollback   transaction boundaries
  .checkpoint          compact the durable store's WAL (with --db)
  .watch NAME/ARITY    print committed deltas of a predicate (.watch lists)
  .unwatch ID          stop a watch
  .quit                leave
"""


class Repl:
    """The REPL engine: feed lines, observe output."""

    def __init__(
        self,
        system: Optional[GlueNailSystem] = None,
        out: Optional[TextIO] = None,
    ):
        self.out = out if out is not None else sys.stdout
        self.system = system if system is not None else GlueNailSystem(out=self.out)
        self._pending: List[str] = []
        self._watches: dict = {}  # sub id -> Subscription (.watch command)
        self.done = False

    # ------------------------------------------------------------------ #

    def _print(self, text: str = "") -> None:
        self.out.write(text + "\n")

    def feed(self, line: str) -> None:
        """Process one input line."""
        stripped = line.strip()
        if not self._pending and not stripped:
            return
        if not self._pending and stripped.startswith("."):
            self._command(stripped)
            return
        self._pending.append(line)
        text = "\n".join(self._pending)
        if self._try_complete(text):
            self._pending.clear()

    def run(self, inp: TextIO, banner: bool = True) -> None:
        if banner:
            self._print("Glue-Nail 1.0 -- .help for help, .quit to leave")
        for line in inp:
            self.feed(line)
            if self.done:
                return

    # ------------------------------------------------------------------ #
    # input classification
    # ------------------------------------------------------------------ #

    def _try_complete(self, text: str) -> bool:
        """Attempt to interpret accumulated input; True when consumed."""
        stripped = text.strip()
        if stripped.endswith("?"):
            self._query(stripped)
            return True
        try:
            program = parse_program(text)
        except (ParseError, LexError) as exc:
            if self._looks_incomplete(text):
                return False  # keep accumulating
            self._print(f"parse error: {exc}")
            return True
        try:
            self._execute(program, text)
        except GlueNailError as exc:
            self._print(f"error: {exc}")
        return True

    @staticmethod
    def _looks_incomplete(text: str) -> bool:
        stripped = text.strip()
        if not stripped:
            return False
        # Procedures/modules continue until 'end'; statements until '.'.
        opens = any(
            stripped.startswith(k) for k in ("proc", "procedure", "module")
        )
        if opens and not stripped.endswith("end"):
            return True
        return not (stripped.endswith(".") or stripped.endswith("end"))

    def _execute(self, program, text: str) -> None:
        from repro.lang.ast import AssignStmt, PredSubgoal, RepeatStmt, RuleDecl
        from repro.terms.term import Atom, is_ground

        def is_ground_fact(item) -> bool:
            return (
                isinstance(item, RuleDecl)
                and item.body == (PredSubgoal(pred=Atom("true"), args=()),)
                and is_ground(item.head_pred)
                and all(is_ground(a) for a in item.head_args)
            )

        # Ground unit clauses become EDB facts directly; everything else
        # loads into the program (rules, procs, modules) or runs (scripts).
        # The facts and statements of one line are one implicit transaction.
        immediate = []
        to_load_items = []
        with self.system.db.atomically():
            for item in program.items:
                if is_ground_fact(item):
                    self.system.db.relation(item.head_pred, len(item.head_args)).insert(
                        item.head_args
                    )
                    immediate.append("fact")
                elif isinstance(item, (AssignStmt, RepeatStmt)):
                    self._run_statement(item)
                    immediate.append("ran")
                else:
                    to_load_items.append(item)
        if to_load_items or program.modules:
            from repro.lang.ast import Program

            self.system._programs.append(
                Program(modules=program.modules, items=tuple(to_load_items))
            )
            self.system._invalidate()
            try:
                self.system.compile()
                self._print(
                    f"ok ({len(to_load_items)} item(s), {len(program.modules)} module(s))"
                )
            except GlueNailError as exc:
                self.system._programs.pop()
                self.system._invalidate()
                self._print(f"rejected: {exc}")
        elif immediate:
            self._print("ok")

    def _run_statement(self, item) -> None:
        """Run one Glue statement now, under the session's settings, on a
        system that sees everything loaded so far."""
        from repro.lang.ast import Program

        system = self.system
        runner = GlueNailSystem(
            db=system.db,
            strict=system.strict,
            out=self.out,
            inp=system.inp,
            max_loop_iterations=system.max_loop_iterations,
        )
        runner._oracles = system._oracles
        runner._programs = list(system._programs) + [Program(items=(item,))]
        runner._foreign = list(system._foreign)
        runner.run_script()

    def _query(self, text: str) -> None:
        try:
            rows = self.system.query(text)
        except GlueNailError as exc:
            self._print(f"error: {exc}")
            return
        self._emit_rows(rows)

    def _emit_rows(self, rows) -> None:
        if not rows:
            self._print("no")
            return
        for row in sorted(rows, key=str):
            self._print(tuple_to_str(row))
        self._print(f"({len(rows)} tuple(s))")

    # ------------------------------------------------------------------ #
    # dot commands
    # ------------------------------------------------------------------ #

    def _command(self, line: str) -> None:
        parts = line.split(None, 1)
        command = parts[0]
        arg = parts[1].strip() if len(parts) > 1 else ""
        handlers = {
            ".help": self._cmd_help,
            ".quit": self._cmd_quit,
            ".exit": self._cmd_quit,
            ".rels": self._cmd_rels,
            ".dump": self._cmd_dump,
            ".magic": self._cmd_magic,
            ".explain": self._cmd_explain,
            ".analyze": self._cmd_analyze,
            ".profile": self._cmd_profile,
            ".last": self._cmd_last,
            ".stats": self._cmd_stats,
            ".save": self._cmd_save,
            ".load": self._cmd_load,
            ".begin": self._cmd_begin,
            ".commit": self._cmd_commit,
            ".rollback": self._cmd_rollback,
            ".checkpoint": self._cmd_checkpoint,
            ".watch": self._cmd_watch,
            ".unwatch": self._cmd_unwatch,
        }
        handler = handlers.get(command)
        if handler is None:
            self._print(f"unknown command {command}; .help for help")
            return
        try:
            handler(arg)
        except (GlueNailError, OSError) as exc:
            self._print(f"error: {exc}")

    def _cmd_help(self, _arg: str) -> None:
        self._print(_HELP.rstrip())

    def _cmd_quit(self, _arg: str) -> None:
        self.done = True

    def _cmd_rels(self, _arg: str) -> None:
        keys = self.system.db.sorted_keys()
        if not keys:
            self._print("(empty database)")
            return
        for name, arity in keys:
            relation = self.system.db.get(name, arity)
            self._print(f"  {name}/{arity}  {len(relation)} tuple(s)")

    def _cmd_dump(self, arg: str) -> None:
        from repro.lang.parser import parse_term

        if "/" not in arg:
            self._print("usage: .dump name/arity")
            return
        name_text, _, arity_text = arg.rpartition("/")
        try:
            name = parse_term(name_text.strip())
            arity = int(arity_text)
        except (ParseError, LexError, ValueError):
            self._print("usage: .dump name/arity")
            return
        relation = self.system.db.get(name, arity)
        if relation is None:
            self._print("no such relation")
            return
        self._emit_rows(relation.sorted_rows())

    def _cmd_magic(self, arg: str) -> None:
        if not arg:
            self._print("usage: .magic query?")
            return
        try:
            rows = self.system.query_magic(arg)
        except GlueNailError as exc:
            self._print(f"error: {exc}")
            return
        self._emit_rows(rows)

    def _cmd_explain(self, _arg: str) -> None:
        from repro.vm.explain import explain_program

        self._print(explain_program(self.system.compile()))

    def _cmd_analyze(self, arg: str) -> None:
        if not arg:
            self._print("usage: .analyze query?")
            return
        self._print(self.system.explain_analyze(arg))

    def _cmd_profile(self, arg: str) -> None:
        if arg == "on":
            self.system.enable_tracing()
            self._print("profiling on")
        elif arg == "off":
            self.system.disable_tracing()
            self._print("profiling off")
        else:
            self._print("usage: .profile on|off")

    def _cmd_last(self, _arg: str) -> None:
        from repro.obs.report import render_profile

        result = self.system.last_result
        if result is None or result.stats is None:
            self._print("(no query has run yet)")
            return
        self._print(render_profile(result.stats, result.trace))

    def _cmd_stats(self, _arg: str) -> None:
        snapshot = {k: v for k, v in self.system.counters.snapshot().items() if v}
        if not snapshot:
            self._print("(no work recorded)")
        for key, value in sorted(snapshot.items()):
            self._print(f"  {key:22s} {value}")
        self.system.reset_counters()

    def _cmd_save(self, arg: str) -> None:
        if not arg:
            self._print("usage: .save file")
            return
        count = self.system.save_edb(arg)
        self._print(f"saved {count} fact(s)")

    def _cmd_load(self, arg: str) -> None:
        if not arg:
            self._print("usage: .load file")
            return
        self.system.load_edb(arg)
        self._print("loaded")

    def _cmd_begin(self, _arg: str) -> None:
        self.system.begin()
        self._print("transaction open")

    def _cmd_commit(self, _arg: str) -> None:
        self.system.commit()
        self._print("transaction committed")

    def _cmd_rollback(self, _arg: str) -> None:
        self.system.rollback()
        self._print("transaction rolled back")

    def _cmd_checkpoint(self, _arg: str) -> None:
        count = self.system.checkpoint()
        self._print(f"checkpointed {count} fact(s)")

    def _cmd_watch(self, arg: str) -> None:
        from repro.lang.parser import parse_term

        if not arg:
            if not self._watches:
                self._print("(no watches)")
            for sub_id, sub in sorted(self._watches.items()):
                self._print(f"  [{sub_id}] {sub.predicate}")
            return
        if "/" not in arg:
            self._print("usage: .watch name/arity")
            return
        name_text, _, arity_text = arg.rpartition("/")
        try:
            name = parse_term(name_text.strip())
            arity = int(arity_text)
        except (ParseError, LexError, ValueError):
            self._print("usage: .watch name/arity")
            return

        def show(note) -> None:
            if note.op == "resync":
                self._print(
                    f"watch[{note.sub_id}] {note.predicate} resync"
                    f" (dropped {note.dropped})"
                )
                return
            sign = "+" if note.op == "insert" else "-"
            for row in note.rows:
                self._print(
                    f"watch[{note.sub_id}] {sign}{note.predicate} {tuple_to_str(row)}"
                )

        sub = self.system.subscribe(name, arity, callback=show)
        self._watches[sub.id] = sub
        self._print(f"watching {sub.predicate} [{sub.id}]")

    def _cmd_unwatch(self, arg: str) -> None:
        try:
            sub_id = int(arg)
        except ValueError:
            self._print("usage: .unwatch ID")
            return
        sub = self._watches.pop(sub_id, None)
        if sub is None:
            self._print(f"no watch {sub_id}")
            return
        self.system.subscriptions.unsubscribe(sub_id)
        self._print(f"unwatched {sub.predicate} [{sub_id}]")


def main() -> int:  # pragma: no cover - interactive entry point
    repl = Repl()
    try:
        repl.run(sys.stdin)
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
