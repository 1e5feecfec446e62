"""Tests for the gluenail command-line interface."""

import pytest

from repro.core.cli import main

PROGRAM = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
edge(1, 2).
edge(2, 3).

proc double(X:Y)
  return(X:Y) := in(X) & Y = X * 2.
end

seed(X) := start(X).
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.glue"
    path.write_text(PROGRAM)
    return str(path)


class TestCheck:
    def test_check_ok(self, program_file, capsys):
        assert main(["check", program_file]) == 0
        out = capsys.readouterr().out
        assert "procedures" in out and "rules" in out

    def test_check_reports_compile_error(self, tmp_path, capsys):
        path = tmp_path / "bad.glue"
        path.write_text("out(X, Y) := a(X).")
        assert main(["check", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_query(self, program_file, capsys):
        assert main(["query", program_file, "path(1, Y)?"]) == 0
        out = capsys.readouterr().out
        assert "(1, 2)" in out and "(1, 3)" in out

    def test_query_magic(self, program_file, capsys):
        assert main(["query", program_file, "path(2, Y)?", "--magic"]) == 0
        out = capsys.readouterr().out
        assert "(2, 3)" in out and "(1, 2)" not in out

    def test_query_with_stats(self, program_file, capsys):
        assert main(["query", program_file, "path(1, Y)?", "--stats"]) == 0
        assert "tuples_scanned" in capsys.readouterr().out


class TestRun:
    def test_run_call(self, program_file, capsys):
        assert main(["run", program_file, "--call", "double", "--input", "21"]) == 0
        assert "(21, 42)" in capsys.readouterr().out

    def test_run_script_and_save(self, program_file, tmp_path, capsys):
        dump = str(tmp_path / "out.gnd")
        assert main(["run", program_file, "--save", dump]) == 0
        content = open(dump).read()
        assert "seed" in content or "% rel" in content

    def test_run_with_edb(self, program_file, tmp_path, capsys):
        dump = str(tmp_path / "in.gnd")
        with open(dump, "w") as handle:
            handle.write("% Glue-Nail EDB dump (format 1)\nedge(3, 4).\n")
        assert main(["query", program_file, "path(1, Y)?", "--edb", dump]) == 0
        assert "(1, 4)" in capsys.readouterr().out


class TestNail2Glue:
    def test_prints_generated_module(self, program_file, capsys):
        assert main(["nail2glue", program_file]) == 0
        out = capsys.readouterr().out
        assert "module nail_generated;" in out
        assert "repeat" in out


class TestFmtAndExplain:
    def test_fmt_is_canonical_fixpoint(self, program_file, tmp_path, capsys):
        assert main(["fmt", program_file]) == 0
        once = capsys.readouterr().out
        formatted = tmp_path / "formatted.glue"
        formatted.write_text(once)
        assert main(["fmt", str(formatted)]) == 0
        assert capsys.readouterr().out == once

    def test_explain_shows_plans(self, program_file, capsys):
        assert main(["explain", program_file]) == 0
        out = capsys.readouterr().out
        assert "proc double/2" in out
        assert "NAIL! rules" in out


class TestFileErrors:
    def test_missing_program_file(self, capsys):
        assert main(["check", "/no/such/prog.glue"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_edb_file(self, program_file, capsys):
        assert main(["query", program_file, "path(1, Y)?", "--edb", "/nope.gnd"]) == 1
        assert "error" in capsys.readouterr().err


class TestFactsDir:
    def test_save_and_load_facts_dir(self, program_file, tmp_path, capsys):
        facts_dir = str(tmp_path / "facts")
        assert main(["run", program_file, "--save-facts", facts_dir]) == 0
        capsys.readouterr()
        assert main(
            ["query", program_file, "path(1, Y)?", "--facts-dir", facts_dir]
        ) == 0
        out = capsys.readouterr().out
        assert "(1, 2)" in out
