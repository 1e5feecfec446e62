"""Executable versions of the paper's prose claims, one test per claim."""

import io

import pytest

from repro.core.query import rows_to_python
from repro.errors import GlueRuntimeError
from tests.conftest import make_system


class TestUniformSubgoalSemantics:
    """Section 2: "a subgoal in Glue or NAIL! can reference an EDB
    relation, a NAIL! predicate, or a Glue procedure, and the syntax and
    semantics are identical in all three cases."""

    SOURCE = """
    % the same binary 'source of pairs' implemented three ways
    nail_pairs(X, Y) :- seeds(X) & Y = X + 100.
    proc proc_pairs(:X, Y)
      return(:X, Y) := seeds(X) & Y = X + 100.
    end
    proc consume_edb(:X, Y)
      return(:X, Y) := edb_pairs(X, Y) & X < 3.
    end
    proc consume_nail(:X, Y)
      return(:X, Y) := nail_pairs(X, Y) & X < 3.
    end
    proc consume_proc(:X, Y)
      return(:X, Y) := proc_pairs(X, Y) & X < 3.
    end
    """

    def test_same_syntax_same_answers(self):
        system = make_system(self.SOURCE)
        system.facts("seeds", [(1,), (2,), (5,)])
        system.facts("edb_pairs", [(1, 101), (2, 102), (5, 105)])
        edb = sorted(rows_to_python(system.call("consume_edb")))
        nail = sorted(rows_to_python(system.call("consume_nail")))
        proc = sorted(rows_to_python(system.call("consume_proc")))
        assert edb == nail == proc == [(1, 101), (2, 102)]


class TestCurrentValueSemantics:
    """Section 2: "The meaning is always: use the current value." """

    def test_nail_sees_glue_updates(self):
        system = make_system(
            """
            big(X) :- data(X) & X > 10.
            proc grow(:X)
              data(50) += true.
              return(:X) := big(X).
            end
            """
        )
        system.facts("data", [(5,), (20,)])
        # First call: the update lands before the NAIL! subgoal reads.
        rows = sorted(rows_to_python(system.call("grow")))
        assert rows == [(20,), (50,)]

    def test_derived_values_track_deletes(self):
        system = make_system("big(X) :- data(X) & X > 10.")
        system.facts("data", [(20,), (30,)])
        assert len(system.query("big(X)?")) == 2
        from repro.terms.term import Num

        system.db.get("data", 1).delete((Num(30),))
        assert len(system.query("big(X)?")) == 1


class TestNoDuplicates:
    """Section 2: "Predicates do not have duplicates." """

    def test_joins_never_create_duplicates(self):
        system = make_system("out(X) := a(X, _) & b(X, _).")
        system.facts("a", [(1, i) for i in range(5)])
        system.facts("b", [(1, i) for i in range(5)])
        system.run_script()
        assert len(system.rows("out", 1)) == 1


class TestStringsFirstClass:
    """Section 2: strings are atoms, with builtin operators."""

    def test_string_pipeline(self):
        system = make_system(
            """
            proc abbreviate(:Name, Abbrev)
              return(:Name, Abbrev) :=
                city(Name) & length(Name) > 4 &
                Abbrev = concat(substring(Name, 1, 3), '.').
            end
            """
        )
        system.facts("city", [("copenhagen",), ("rome",)])
        rows = rows_to_python(system.call("abbreviate"))
        assert rows == [("copenhagen", "cop.")]


class TestOperationalNotLogical:
    """Section 3.1: "Glue assignment statements are not logical rules,
    they are operational directives."""

    def test_statements_do_not_re_fire(self):
        # Unlike a rule, an executed statement is done: later EDB changes
        # do not retroactively update the head relation.
        system = make_system("snapshot(X) := live(X).")
        system.facts("live", [(1,)])
        system.run_script()
        system.facts("live", [(2,)])
        assert rows_to_python(system.rows("snapshot", 1)) == [(1,)]

    def test_left_to_right_side_effects(self):
        # Fixed subgoals run in order: the write happens between updates.
        out = io.StringIO()
        system = make_system(
            """
            proc steps(:)
              return(:) := ++first(1) & write('mid') & ++second(2).
            end
            """,
            out=out,
        )
        system.call("steps")
        assert out.getvalue() == "mid"
        assert system.rows("first", 1) and system.rows("second", 1)


class TestMatchingNotUnification:
    """Section 2: ground relations mean matching suffices."""

    def test_nonground_insert_rejected(self):
        system = make_system("keep(X) := src(X).")
        from repro.terms.term import Var

        with pytest.raises(ValueError):
            system.db.relation("src", 1).insert((Var("X"),))


class TestFailureModes:
    """Errors surface as exceptions, not silent wrong answers."""

    def test_arithmetic_type_error(self):
        system = make_system("out(D) := pair(X, Y) & D = X + Y.")
        system.facts("pair", [("a", 1)])
        with pytest.raises(GlueRuntimeError, match="numbers"):
            system.run_script()

    def test_division_by_zero(self):
        system = make_system("out(D) := pair(X, Y) & D = X / Y.")
        system.facts("pair", [(1, 0)])
        with pytest.raises(GlueRuntimeError, match="zero"):
            system.run_script()

    def test_mean_of_atoms(self):
        system = make_system("out(M) := names(N) & M = mean(N).")
        system.facts("names", [("a",)])
        with pytest.raises(GlueRuntimeError, match="numeric"):
            system.run_script()

    def test_errors_leave_system_usable(self):
        system = make_system(
            """
            bad(D) := pair(X, Y) & D = X / Y.
            """
        )
        system.facts("pair", [(1, 0)])
        with pytest.raises(GlueRuntimeError):
            system.run_script()
        # The system still answers queries afterwards.
        assert rows_to_python(system.query("pair(X, Y)?")) == [(1, 0)]
