"""Tests for the compiler: plan structure, cost vs program order, errors."""

import pytest

from repro.core.query import rows_to_python
from repro.errors import CompileError
from repro.vm.plan import (
    BindStep,
    CallStep,
    CompareStep,
    NegScanStep,
    ScanStep,
    TruthStep,
    UnchangedStep,
    UpdateStep,
)
from tests.conftest import make_system


def plan_of(source, proc_name, arity, stmt_index=0, **kwargs):
    system = make_system(source, **kwargs)
    compiled = system.compile()
    proc = compiled.find_proc(proc_name, arity)
    return proc.body[stmt_index].plan


class TestPlanStructure:
    def test_scan_columns_accumulate(self):
        plan = plan_of(
            """
            proc p(:X, W)
              return(:X, W) := a(X, A, B) & b(A, C) & c(B, C, W).
            end
            """,
            "p",
            2,
            written_order=True,
        )
        # Paper Section 3.2's supplementary columns (after the implicit in()).
        columns = [step.columns_out for step in plan if isinstance(step, ScanStep)]
        assert columns[1] == ("X", "A", "B")
        assert columns[2] == ("X", "A", "B", "C")
        assert columns[3] == ("X", "A", "B", "C", "W")

    def test_implicit_in_subgoal_prepended(self):
        plan = plan_of(
            """
            proc p(X:Y)
              return(X:Y) := data(X, Y).
            end
            """,
            "p",
            2,
        )
        first = plan[0]
        assert isinstance(first, ScanStep)
        assert first.ref.info.skeleton[0] == "in"

    def test_comparison_compiles_to_filter_or_binding(self):
        plan = plan_of(
            """
            proc p(:X, D)
              return(:X, D) := a(X) & D = X + 1 & D < 9.
            end
            """,
            "p",
            2,
            written_order=True,
        )
        kinds = [type(s).__name__ for s in plan]
        assert "BindStep" in kinds and "CompareStep" in kinds

    def test_negation_compiles_to_neg_scan(self):
        plan = plan_of(
            """
            proc p(:X)
              return(:X) := a(X) & !b(X).
            end
            """,
            "p",
            1,
        )
        assert any(isinstance(s, NegScanStep) for s in plan)

    def test_true_literal(self):
        plan = plan_of(
            """
            proc p(:X)
              return(:X) := true & a(X).
            end
            """,
            "p",
            1,
        )
        assert any(isinstance(s, TruthStep) and s.value for s in plan)

    def test_until_conditions_compiled_as_plans(self):
        system = make_system(
            """
            proc p(:)
            rels acc(V);
              repeat
                acc(X) += seed(X).
              until unchanged(acc(_));
              return(:) := true.
            end
            """
        )
        compiled = system.compile()
        repeat = compiled.find_proc("p", 0).body[0]
        (alt,) = repeat.until_alts
        assert isinstance(alt[0], UnchangedStep)


class TestOptimizerFlag:
    SOURCE = """
    proc p(:X)
      return(:X) := big(Y) & a(X) & X < 3 & !bad(X).
    end
    """

    def _run(self, mode):
        system = make_system(self.SOURCE, written_order=mode == "program")
        system.facts("big", [(i,) for i in range(50)])
        system.facts("a", [(1,), (2,), (5,)])
        system.facts("bad", [(2,)])
        system.compile()
        system.reset_counters()
        rows = system.call("p")
        return rows_to_python(rows), system.counters.tuples_scanned

    def test_same_results_either_way(self):
        opt_rows, opt_cost = self._run("cost")
        raw_rows, raw_cost = self._run("program")
        assert sorted(opt_rows) == sorted(raw_rows) == [(1,)]

    def test_optimizer_reduces_scanning(self):
        _, opt_cost = self._run("cost")
        _, raw_cost = self._run("program")
        # Hoisting the X < 3 filter before joining against big/1 cuts work.
        assert opt_cost <= raw_cost


class TestErrors:
    def test_error_messages_carry_line_numbers(self):
        source = "\n\nout(X, Y) := a(X).\n"
        with pytest.raises(CompileError, match="line 3"):
            make_system(source).compile()

    def test_cannot_negate_procedure(self):
        source = """
        proc f(X:Y)
          return(X:Y) := in(X) & Y = X.
        end
        proc g(:X)
          return(:X) := a(X) & !f(X, X).
        end
        """
        with pytest.raises(CompileError, match="negate"):
            make_system(source).compile()

    def test_return_outside_procedure(self):
        with pytest.raises(CompileError, match="outside"):
            make_system("return(:X) := a(X).").compile()

    def test_return_arity_mismatch(self):
        source = """
        proc p(:X)
          return(:X, Y) := a(X, Y).
        end
        """
        with pytest.raises(CompileError, match="arity"):
            make_system(source).compile()

    def test_return_colon_position_checked(self):
        source = """
        proc p(X:Y)
          return(X, Y:) := in(X) & a(Y).
        end
        """
        with pytest.raises(CompileError, match="bound arity"):
            make_system(source).compile()

    def test_colon_in_non_return_head(self):
        with pytest.raises(CompileError, match="return"):
            make_system("out(X:Y) := a(X, Y).").compile()

    def test_unchanged_needs_static_predicate(self):
        source = """
        proc p(S:)
        rels acc(V);
          repeat
            acc(X) += seed(X).
          until unchanged(S(_));
          return(S:) := in(S).
        end
        """
        # Rejected either as a dynamic unchanged target or (because the
        # until-condition plan starts from no bindings) as an unbound name.
        with pytest.raises(CompileError, match="static|unbound"):
            make_system(source).compile()

    def test_proc_call_input_must_be_bound(self):
        source = """
        proc f(X:Y)
          return(X:Y) := in(X) & Y = X.
        end
        proc g(:Y)
          return(:Y) := f(Unbound, Y).
        end
        """
        with pytest.raises(CompileError):
            make_system(source, written_order=True).compile()
