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


class TestLocalRelationEstimates:
    SOURCE = """
    proc venue_report(:V, Papers, Authorships)
    rels per_venue(V, N);
      per_venue(V, N) := paper(P, V, _) & group_by(V) & N = count(P).
      return(:V, Papers, Authorships) :=
        per_venue(V, Papers) & paper(P, V, _) & wrote(A, P) &
        group_by(V, Papers) & Authorships = count(A).
    end
    """

    def test_sized_local_is_scanned_first_with_its_estimate(self):
        system = make_system(self.SOURCE)
        system.facts("paper", [(f"p{i}", f"v{i % 5}", 1990 + i % 7) for i in range(32)])
        system.facts("wrote", [(f"a{i % 11}", f"p{i % 32}") for i in range(48)])
        text = explain_proc(system.compile().find_proc("venue_report", 3))
        body = text.split("ASSIGN return/3", 1)[1]
        scans = [line.split() for line in body.splitlines() if "SCAN" in line]
        assert [scan[1] for scan in scans] == ["in/0", "per_venue/2", "paper/3", "wrote/2"]
        assert "est~5" in scans[1]  # one row per venue
        assert "est~32" in scans[2] and "est~48" in scans[3]
