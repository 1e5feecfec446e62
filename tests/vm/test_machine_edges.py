"""Edge-case tests for the virtual machine runtime."""

import pytest

from repro.core.query import rows_to_python
from repro.errors import GlueRuntimeError
from repro.terms.term import Atom, Num
from repro.vm.machine import ExecContext, Frame
from tests.conftest import make_system


class TestExecContext:
    def test_default_database_created(self):
        ctx = ExecContext()
        assert ctx.db is not None
        assert ctx.counters is ctx.db.counters


class TestFrames:
    def test_in_outside_procedure_is_an_ordinary_name(self):
        # 'in' and 'return' are special only inside procedures; at script
        # level they resolve like any other (implicitly EDB) relation.
        system = make_system("out(X) := in(X).")
        system.facts("in", [(7,)])
        system.run_script()
        assert rows_to_python(system.rows("out", 1)) == [(7,)]

    def test_return_head_outside_procedure_rejected(self):
        from repro.errors import CompileError

        with pytest.raises(CompileError, match="outside"):
            make_system("return(:X) := a(X).").compile()

    def test_reading_return_inside_procedure(self):
        # Reading the return relation mid-procedure is legal.
        system = make_system(
            """
            proc accrete(:X)
            rels tmp(V);
              tmp(X) := seed(X).
              return(:X) := tmp(X).
              return(:X) += return(Y) & X = Y + 1.
            end
            """
        )
        system.facts("seed", [(1,)])
        rows = sorted(rows_to_python(system.call("accrete")))
        assert rows == [(1,)]  # first return already exited


class TestUpdateEdges:
    def test_insert_with_anonymous_rejected(self):
        system = make_system("out(X) := a(X) & ++log(X, _).")
        system.facts("a", [(1,)])
        with pytest.raises(GlueRuntimeError, match="ground"):
            system.run_script()

    def test_update_applies_once_per_distinct_instantiation(self):
        system = make_system("out(X) := a(X, _) & ++log(X).")
        system.facts("a", [(1, 10), (1, 20), (2, 30)])
        system.run_script()
        assert len(system.rows("log", 1)) == 2

    def test_update_on_local_relation(self):
        system = make_system(
            """
            proc p(:X)
            rels mine(V);
              mine(1) := true.
              out__() := mine(V) & --mine(V).
              return(:X) := mine(X).
            end
            """
        )
        assert system.call("p") == []

    def test_cannot_update_nail_predicate(self):
        from repro.errors import CompileError

        system = make_system(
            """
            derived(X) :- base(X).
            out(X) := a(X) & ++derived(X).
            """
        )
        # Caught statically: NAIL! predicates are not updatable relations.
        with pytest.raises(CompileError, match="relation"):
            system.compile()


class TestNailViewFromGlue:
    def test_demand_only_rule_via_glue_subgoal(self):
        # graphic_search-style rule: only evaluable when the caller binds
        # the first argument -- through a Glue body subgoal.
        system = make_system(
            """
            shifted(X, Y) :- offset(D) & Y = X + D.
            proc probe(X:Y)
              return(X:Y) := in(X) & shifted(X, Y).
            end
            """
        )
        system.facts("offset", [(10,), (20,)])
        rows = sorted(rows_to_python(system.call("probe", [(1,), (2,)])))
        assert rows == [(1, 11), (1, 21), (2, 12), (2, 22)]

    def test_demand_rule_negated(self):
        system = make_system(
            """
            shifted(X, Y) :- offset(D) & Y = X + D.
            proc gaps(X:)
              return(X:) := in(X) & !shifted(X, 11).
            end
            """
        )
        system.facts("offset", [(10,)])
        rows = sorted(rows_to_python(system.call("gaps", [(1,), (2,)])))
        assert rows == [(2,)]  # 1+10=11 matches, so 1 is filtered out

    def test_full_materialization_of_demand_rule_rejected(self):
        system = make_system("shifted(X, Y) :- offset(D) & Y = X + D.")
        system.facts("offset", [(10,)])
        from repro.errors import UnsafeRuleError

        with pytest.raises(UnsafeRuleError):
            system.rows("shifted", 2)

    def test_demand_cache_invalidated_on_edb_change(self):
        system = make_system(
            """
            shifted(X, Y) :- offset(D) & Y = X + D.
            """
        )
        system.facts("offset", [(10,)])
        assert rows_to_python(system.query("shifted(1, Y)?")) == [(1, 11)]
        system.facts("offset", [(100,)])
        rows = sorted(rows_to_python(system.query("shifted(1, Y)?")))
        assert rows == [(1, 11), (1, 101)]


class TestZeroArity:
    def test_zero_arity_proc_chain(self):
        system = make_system(
            """
            proc first(:)
              step(1) += true.
              return(:) := true.
            end
            proc second(:)
              step(2) += true.
              return(:) := true.
            end
            proc both(:)
            rels done();
              done() := first() & second().
              return(:) := done().
            end
            """
        )
        assert system.call("both") == [()]
        assert len(system.rows("step", 1)) == 2

    def test_failed_zero_arity_call_stops_chain(self):
        system = make_system(
            """
            proc never(:)
            rels nothing();
              return(:) := nothing().
            end
            proc after(:)
              marker(1) += true.
              return(:) := true.
            end
            proc chain(:)
            rels done();
              done() := never() & after().
              return(:) := done().
            end
            """
        )
        assert system.call("chain") == []
        # after() never ran: the empty result stopped the conjunction.
        assert system.rows("marker", 1) == []
