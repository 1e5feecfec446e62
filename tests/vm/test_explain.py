"""Tests for the EXPLAIN facility."""

from repro.vm.explain import explain_proc, explain_program
from tests.conftest import make_system

SOURCE = """
proc analyse(:C, M)
rels tmp(A);
  tmp(X) := data(X, _) & ++audit(X).
  repeat
    tmp(X) += more(X).
  until unchanged(tmp(_));
  return(:C, M) := grades(C, G) & group_by(C) & M = mean(G) & !excluded(C).
end
derived(X) :- data(X, _).
"""


class TestExplain:
    def _text(self, **kwargs):
        system = make_system(SOURCE, **kwargs)
        return explain_program(system.compile())

    def test_proc_header(self):
        text = self._text()
        assert "proc analyse/2" in text
        assert "fixed=True" in text  # contains an update subgoal
        assert "locals: tmp/1" in text

    def test_step_kinds_rendered(self):
        text = self._text()
        for kind in ("SCAN", "UPDATE", "AGGREGATE", "GROUP_BY", "ANTIJOIN",
                     "UNCHANGED?", "REPEAT", "UNTIL"):
            assert kind in text, kind

    def test_barriers_marked(self):
        text = self._text()
        assert "<<BREAK>>" in text

    def test_predicate_classes_shown(self):
        text = self._text()
        assert "[LOCAL]" in text
        assert "[EDB]" in text or "[dynamic" in text

    def test_nail_rules_counted(self):
        assert "NAIL! rules: 1" in self._text()

    def test_column_layouts(self):
        text = self._text()
        assert "cols=(" in text

    def test_dynamic_reference_rendered(self):
        system = make_system(
            """
            proc members(S:X)
              return(S:X) := in(S) & S(X).
            end
            """
        )
        text = explain_program(system.compile())
        assert "dynamic" in text

    def test_script_section(self):
        system = make_system("out(X) := a(X).")
        text = explain_program(system.compile())
        assert "script:" in text


class TestAggregateCollapseLabel:
    def _aggregate_line(self, source):
        text = explain_program(make_system(source).compile())
        return next(line for line in text.splitlines() if "AGGREGATE" in line)

    def test_collapsing_aggregate_says_per_group(self):
        line = self._aggregate_line(
            "out(C, M) := grades(C, P, G) & group_by(C) & M = mean(G)."
        )
        assert "mean (bind, per group) groups@[0]" in line

    def test_collapsing_filter_says_per_group(self):
        line = self._aggregate_line(
            "out(C) := grades(C, P, G) & group_by(C) & G > mean(G)."
        )
        assert "mean (filter '>', per group) groups@[0]" in line

    def test_head_reading_a_member_column_keeps_every_row(self):
        line = self._aggregate_line(
            "out(C, P, M) := grades(C, P, G) & group_by(C) & M = mean(G)."
        )
        assert "mean (bind) groups@[0]" in line
        assert "per group" not in line
