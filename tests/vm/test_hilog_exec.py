"""Execution tests for HiLog features in Glue: predicate variables,
dynamic heads, compile-time dereferencing vs. run-time dispatch."""

import pytest

from repro.core.query import rows_to_python
from repro.errors import GlueRuntimeError
from repro.terms.term import Atom, Compound
from repro.vm.plan import DynamicStep, ScanStep
from tests.conftest import make_system


def set_name(base, param):
    return Compound(Atom(base), (Atom(param),))


class TestPredicateVariables:
    SOURCE = """
    proc members(S:X)
      return(S:X) := in(S) & S(X).
    end
    """

    def test_reads_named_relation(self):
        system = make_system(self.SOURCE)
        system.facts("reds", [("apple",), ("cherry",)])
        rows = system.call("members", [(Atom("reds"),)])
        assert sorted(rows_to_python(rows)) == [("reds", "apple"), ("reds", "cherry")]

    def test_reads_compound_named_relation(self):
        system = make_system(self.SOURCE)
        system.db.relation(set_name("students", "cs99"), 1).insert((Atom("wilson"),))
        rows = system.call("members", [(set_name("students", "cs99"),)])
        assert rows_to_python(rows) == [(("students", "cs99"), "wilson")]

    def test_two_sets_in_one_body(self):
        system = make_system(
            """
            proc common(S, T:X)
              return(S, T:X) := in(S, T) & S(X) & T(X).
            end
            """
        )
        system.facts("a", [(1,), (2,)])
        system.facts("b", [(2,), (3,)])
        rows = system.call("common", [(Atom("a"), Atom("b"))])
        assert rows_to_python(rows) == [("a", "b", 2)]

    def test_pred_var_over_nail_predicate(self):
        system = make_system(
            self.SOURCE
            + """
            doubled(X) :- base(X).
            """
        )
        system.facts("base", [(5,)])
        rows = system.call("members", [(Atom("doubled"),)])
        assert rows_to_python(rows) == [("doubled", 5)]

    def test_dynamic_call_to_procedure_rejected(self):
        system = make_system(runtime_dispatch=True)
        system.load(
            self.SOURCE
            + """
            proc victim(:X)
              return(:X) := true & X = 1.
            end
            """
        )
        with pytest.raises(GlueRuntimeError, match="dynamic call"):
            system.call("members", [(Atom("victim"),)])


class TestDispatchModes:
    SOURCE = """
    proc members(S:X)
      return(S:X) := in(S) & S(X).
    end
    """

    def _plan_step(self, system):
        compiled = system.compile()
        proc = compiled.find_proc("members", 2)
        return proc.body[0].plan[-1]

    def test_compile_time_deref_emits_scan(self):
        system = make_system(self.SOURCE)
        assert isinstance(self._plan_step(system), ScanStep)

    def test_runtime_dispatch_emits_dynamic(self):
        system = make_system(runtime_dispatch=True)
        system.load(self.SOURCE)
        assert isinstance(self._plan_step(system), DynamicStep)

    def test_both_modes_agree(self):
        fast = make_system(self.SOURCE)
        slow = make_system(runtime_dispatch=True)
        slow.load(self.SOURCE)
        for system in (fast, slow):
            system.facts("reds", [("apple",)])
        assert rows_to_python(fast.call("members", [(Atom("reds"),)])) == \
            rows_to_python(slow.call("members", [(Atom("reds"),)]))

    def test_dynamic_step_is_barrier(self):
        slow = make_system(runtime_dispatch=True)
        slow.load(self.SOURCE)
        slow.facts("reds", [("apple",)])
        slow.compile()
        slow.reset_counters()
        slow.call("members", [(Atom("reds"),)])
        assert slow.counters.pipeline_breaks >= 1


class TestDynamicHeads:
    def test_insert_into_computed_relation(self):
        system = make_system(
            """
            proc shard(:)
              bucket(K)(V) := data(K, V).
              return(:) := true.
            end
            """
        )
        system.facts("data", [("a", 1), ("a", 2), ("b", 3)])
        system.call("shard")
        a_rows = system.db.get(set_name("bucket", "a"), 1)
        b_rows = system.db.get(set_name("bucket", "b"), 1)
        assert len(a_rows) == 2 and len(b_rows) == 1

    def test_clearing_assignment_per_target(self):
        system = make_system(
            """
            proc reshard(:)
              bucket(K)(V) := data(K, V).
              return(:) := true.
            end
            """
        )
        stale = set_name("bucket", "a")
        system.db.relation(stale, 1).insert((Atom("stale"),))
        system.facts("data", [("a", 1)])
        system.call("reshard")
        rows = rows_to_python(system.db.get(stale, 1).sorted_rows())
        assert rows == [(1,)]  # stale tuple cleared by := on that target

    def test_variable_head_name_must_be_bound(self):
        from repro.errors import CompileError

        with pytest.raises(CompileError):
            system = make_system("S(X) := data(X).")
            system.compile()
