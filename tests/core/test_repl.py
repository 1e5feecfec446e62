"""Tests for the interactive REPL (stream-driven, no TTY needed)."""

import io

import pytest

from repro.core.repl import Repl


def run_session(*lines):
    out = io.StringIO()
    repl = Repl(out=out)
    for line in lines:
        repl.feed(line + "\n")
        if repl.done:
            break
    return out.getvalue(), repl


class TestFactsAndQueries:
    def test_fact_then_query(self):
        out, _ = run_session("edge(1, 2).", "edge(1, X)?")
        assert "ok" in out
        assert "(1, 2)" in out
        assert "1 tuple(s)" in out

    def test_rule_then_query(self):
        out, _ = run_session(
            "edge(1, 2).",
            "edge(2, 3).",
            "path(X, Y) :- edge(X, Y).",
            "path(X, Z) :- path(X, Y) & edge(Y, Z).",
            "path(1, Y)?",
        )
        assert "(1, 2)" in out and "(1, 3)" in out

    def test_no_answers(self):
        out, _ = run_session("edge(1, 2).", "edge(9, X)?")
        assert "no" in out

    def test_glue_statement_runs_immediately(self):
        out, repl = run_session("edge(1, 2).", "copy(X, Y) := edge(X, Y).", "copy(X, Y)?")
        assert "(1, 2)" in out

    def test_multiline_procedure_definition(self):
        out, _ = run_session(
            "proc double(X:Y)",
            "  return(X:Y) := in(X) & Y = X * 2.",
            "end",
            "double(4, Y)?",
        )
        assert "(4, 8)" in out

    def test_parse_error_reported(self):
        out, _ = run_session("this is ( not valid.")
        assert "parse error" in out

    def test_bad_rule_rejected_and_rolled_back(self):
        out, repl = run_session(
            "edge(1, 2).",
            "p(X) :- q(X) & !p(X).",  # unstratified: rejected at compile
            "edge(1, X)?",  # the system still works afterwards
        )
        assert "rejected" in out
        assert "(1, 2)" in out


class TestCommands:
    def test_help(self):
        out, _ = run_session(".help")
        assert ".profile" in out

    def test_quit(self):
        _, repl = run_session(".quit", "edge(1, 2).")
        assert repl.done

    def test_rels_and_dump(self):
        out, _ = run_session("edge(1, 2).", ".rels", ".dump edge/2")
        assert "edge/2" in out
        assert "(1, 2)" in out

    def test_dump_usage(self):
        out, _ = run_session(".dump nonsense")
        assert "usage" in out

    def test_magic(self):
        out, _ = run_session(
            "edge(1, 2).",
            "path(X, Y) :- edge(X, Y).",
            ".magic path(1, Y)?",
        )
        assert "(1, 2)" in out

    def test_stats(self):
        out, _ = run_session("edge(1, 2).", ".stats")
        assert "inserts" in out

    def test_explain(self):
        out, _ = run_session(
            "proc f(X:Y)",
            "  return(X:Y) := in(X) & Y = X.",
            "end",
            ".explain",
        )
        assert "proc f/2" in out
        assert "SCAN" in out

    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "dump.gnd")
        out, _ = run_session("edge(1, 2).", f".save {path}")
        assert "saved 1 fact(s)" in out
        out2, _ = run_session(f".load {path}", "edge(1, X)?")
        assert "(1, 2)" in out2

    def test_unknown_command(self):
        out, _ = run_session(".frobnicate")
        assert "unknown command" in out

    def test_run_stream(self):
        out = io.StringIO()
        repl = Repl(out=out)
        repl.run(io.StringIO("edge(1, 2).\nedge(1, X)?\n.quit\n"))
        assert "(1, 2)" in out.getvalue()
        assert repl.done


class TestStatementSettings:
    """A Glue statement typed at the prompt runs under the session's
    settings, exactly as one in a loaded program would."""

    STMT = "p(X, Z) := edge(X, Y) & edge(Y, Z)."

    def test_statement_follows_the_session_baseline(self):
        from repro.baselines.reference import reference_system

        out = io.StringIO()
        repl = Repl(system=reference_system(materialized=True, out=out), out=out)
        for line in ("edge(1, 2).", "edge(2, 3).", ".stats", self.STMT):
            repl.feed(line + "\n")
        counters = repl.system.counters
        assert (counters.materializations, counters.materialized_tuples) == (2, 3)
        # The same numbers as a system built materialized.
        direct = reference_system(materialized=True)
        direct.facts("edge", [(1, 2), (2, 3)])
        direct.load(self.STMT)
        direct.compile()
        direct.reset_counters()
        direct.run_script()
        assert (
            direct.counters.materializations, direct.counters.materialized_tuples
        ) == (2, 3)

    def test_statement_follows_strict(self):
        from repro.core.system import GlueNailSystem

        out = io.StringIO()
        repl = Repl(system=GlueNailSystem(strict=True, out=out), out=out)
        for line in ("edge(1, 2).", "copy(X, Y) := edge(X, Y)."):
            repl.feed(line + "\n")
        assert "undeclared predicate edge/2 (strict mode)" in out.getvalue()


class TestErrorHardening:
    def test_load_missing_file_reports_error(self):
        out, repl = run_session(".load /no/such/file.gnd", "edge(1, 2).", "edge(1, X)?")
        assert "error:" in out
        assert "(1, 2)" in out  # session still usable

    def test_save_to_bad_path_reports_error(self):
        out, _ = run_session("edge(1, 2).", ".save /proc/definitely/not/writable.gnd")
        assert "error:" in out
