"""Execution tests for Glue procedures (paper Section 4)."""

import io

import pytest

from repro.core.query import rows_to_python
from repro.errors import GlueRuntimeError
from tests.conftest import make_system

TC_E = """
proc tc_e(X:Y)
rels connected(X, Y);
  connected(X, Y) := in(X) & e(X, Y).
  repeat
    connected(X, Y) += connected(X, Z) & e(Z, Y).
  until unchanged(connected(_, _));
  return(X:Y) := connected(X, Y).
end
"""


def call(system, name, inputs=((),), **kwargs):
    return sorted(rows_to_python(system.call(name, inputs, **kwargs)))


class TestTcE:
    def test_reachability_from_one_source(self):
        system = make_system(TC_E)
        system.facts("e", [(1, 2), (2, 3), (3, 4), (9, 10)])
        assert call(system, "tc_e", [(1,)]) == [(1, 2), (1, 3), (1, 4)]

    def test_called_once_on_all_inputs(self):
        # "it is called once on all of the bindings for its input
        # arguments" -- result covers every input tuple.
        system = make_system(TC_E)
        system.facts("e", [(1, 2), (9, 10)])
        assert call(system, "tc_e", [(1,), (9,)]) == [(1, 2), (9, 10)]

    def test_in_restricts_results(self):
        system = make_system(TC_E)
        system.facts("e", [(1, 2), (2, 3)])
        # Input {2}: tuples starting from 1 must not leak out.
        assert call(system, "tc_e", [(2,)]) == [(2, 3)]

    def test_cycle_terminates(self):
        system = make_system(TC_E)
        system.facts("e", [(1, 2), (2, 1)])
        assert call(system, "tc_e", [(1,)]) == [(1, 1), (1, 2)]

    def test_empty_input_returns_empty(self):
        system = make_system(TC_E)
        system.facts("e", [(1, 2)])
        assert call(system, "tc_e", []) == []


class TestProcSemantics:
    def test_locals_fresh_per_invocation(self):
        system = make_system(
            """
            proc accumulate(X:Y)
            rels seen(A);
              seen(X) := in(X).
              return(X:Y) := seen(Y) & in(X).
            end
            """
        )
        assert call(system, "accumulate", [(1,)]) == [(1, 1)]
        # A second invocation must not see the first's local tuples.
        assert call(system, "accumulate", [(2,)]) == [(2, 2)]

    def test_return_exits_immediately(self):
        system = make_system(
            """
            proc early(:X)
              return(:X) := a(X).
              marker(1) := true.
            end
            """
        )
        system.facts("a", [(5,)])
        assert call(system, "early") == [(5,)]
        # The statement after return never ran.
        assert system.rows("marker", 1) == []

    def test_fall_off_end_returns_empty(self):
        system = make_system(
            """
            proc silent(:X)
            rels tmp(A);
              tmp(X) := a(X).
            end
            """
        )
        system.facts("a", [(5,)])
        assert call(system, "silent") == []

    def test_recursion(self):
        # Recursive descent: count down to zero via recursion.
        system = make_system(
            """
            proc countdown(N:M)
              return(N:M) := in(N) & N = 0 & M = 0.
              return(N:M) += in(N) & N > 0 & K = N - 1 & countdown(K, M).
            end
            """
        )
        assert call(system, "countdown", [(3,)]) == [(3, 0)]

    def test_procedure_calling_procedure(self):
        system = make_system(
            TC_E
            + """
            proc reach_two(X:Y)
              return(X:Y) := in(X) & tc_e(X, Y).
            end
            """
        )
        system.facts("e", [(1, 2), (2, 3)])
        assert call(system, "reach_two", [(1,)]) == [(1, 2), (1, 3)]

    def test_constant_output_filter(self):
        # A constant in an output position filters the results.
        system = make_system(TC_E)
        system.facts("e", [(1, 2), (2, 3)])
        system.load(
            """
            proc reaches_three(X:)
              return(X:) := in(X) & tc_e(X, 3).
            end
            """
        )
        assert call(system, "reaches_three", [(1,)]) == [(1,)]
        assert call(system, "reaches_three", [(3,)]) == []

    def test_set_eq_procedure(self):
        # The paper's set_eq (Section 5.1) through the full pipeline.
        from repro.hilog.sets import SET_EQ_GLUE_SOURCE

        system = make_system(SET_EQ_GLUE_SOURCE)
        system.facts("s1", [("a",), ("b",)])
        system.facts("s2", [("b",), ("a",)])
        system.facts("s3", [("a",)])
        from repro.terms.term import Atom

        assert call(system, "set_eq", [(Atom("s1"), Atom("s2"))]) == [("s1", "s2")]
        assert call(system, "set_eq", [(Atom("s1"), Atom("s3"))]) == []

    def test_input_arity_checked(self):
        system = make_system(TC_E)
        with pytest.raises(GlueRuntimeError):
            system.call("tc_e", [(1, 2)])

    def test_unknown_procedure(self):
        system = make_system(TC_E)
        with pytest.raises(GlueRuntimeError):
            system.call("nope")

    def test_proc_call_counted(self):
        system = make_system(TC_E)
        system.facts("e", [(1, 2)])
        system.reset_counters()
        system.call("tc_e", [(1,)])
        assert system.counters.proc_calls == 1


class TestRepeatUntil:
    def test_unchanged_false_first_time(self):
        # A loop whose body never changes anything still runs once and
        # needs a second pass for unchanged() to answer true.
        system = make_system(
            """
            proc once(:X)
            rels acc(A);
              repeat
                acc(X) := seed(X).
              until unchanged(acc(_));
              return(:X) := acc(X).
            end
            """
        )
        system.facts("seed", [(1,)])
        assert call(system, "once") == [(1,)]

    def test_until_disjunction_short_circuit(self):
        system = make_system(
            """
            proc drain(:X)
            rels taken(A);
              repeat
                taken(X) += queue(X) & --queue(X).
              until { empty(queue(_)) | unchanged(taken(_)) };
              return(:X) := taken(X).
            end
            """
        )
        system.facts("queue", [(1,), (2,)])
        assert call(system, "drain") == [(1,), (2,)]
        assert system.rows("queue", 1) == []

    def test_nested_repeat(self):
        system = make_system(
            """
            proc nested(:X)
            rels outer(A), inner(A);
              repeat
                repeat
                  inner(X) += seed(X).
                until unchanged(inner(_));
                outer(X) += inner(X).
              until unchanged(outer(_));
              return(:X) := outer(X).
            end
            """
        )
        system.facts("seed", [(7,)])
        assert call(system, "nested") == [(7,)]

    def test_runaway_loop_guarded(self):
        system = make_system(
            """
            proc runaway(:)
            rels n(V);
              n(0) := true.
              repeat
                n(V) +=[V] n(W) & V = W + 1 & group_by(W) & V = max(V).
              until false;
              return(:) := true.
            end
            """,
            max_loop_iterations=50,
        )
        with pytest.raises(GlueRuntimeError, match="iterations"):
            system.call("runaway")


class TestIo:
    def test_write_inside_proc(self):
        out = io.StringIO()
        system = make_system(
            """
            proc announce(:)
              return(:) := msg(M) & writeln(M).
            end
            """,
            out=out,
        )
        system.facts("msg", [("hello",)])
        system.call("announce")
        assert out.getvalue() == "hello\n"

    def test_write_skipped_when_sup_empty(self):
        # "Execution stops whenever a supplementary relation is empty":
        # the write must not run.
        out = io.StringIO()
        system = make_system(
            """
            proc quiet(:)
              return(:) := nothing(M) & writeln(M).
            end
            """,
            out=out,
        )
        system.call("quiet")
        assert out.getvalue() == ""

    def test_read_line(self):
        system = make_system(
            """
            proc ask(:A)
              return(:A) := read_line(A).
            end
            """,
            inp=io.StringIO("fourty-two\n"),
        )
        assert call(system, "ask") == [("fourty-two",)]


class TestAggregateUntil:
    def test_until_with_aggregate_condition(self):
        # Conditions reuse the full body machinery, aggregates included:
        # loop until the accumulator holds at least 5 tuples.
        system = make_system(
            """
            proc grow(:N)
            rels acc(V);
              acc(0) := true.
              repeat
                acc(V) += acc(W) & V = W + 1.
              until acc(V) & C = count(V) & C >= 5;
              return(:N) := acc(V) & N = max(V).
            end
            """
        )
        rows = rows_to_python(system.call("grow"))
        assert rows and rows[0][0] >= 4
