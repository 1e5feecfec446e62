"""Tests for the flat-pattern fast scan path."""

import pytest

from repro.core.query import rows_to_python
from repro.vm.plan import ScanStep
from tests.conftest import make_system


def scan_steps(system, proc_name, arity):
    compiled = system.compile()
    proc = compiled.find_proc(proc_name, arity)
    return [s for s in proc.body[0].plan if isinstance(s, ScanStep)]


def is_flat(step):
    """A flat pattern extracts positionally: no compound with variables
    (``extract_cols`` set) and no repeated fresh variable (no eq-checks)."""
    return step.lit.extract_cols is not None and not step.lit.eq_checks


class TestFlatDetection:
    def test_plain_vars_are_flat(self):
        system = make_system(
            """
            proc p(:X, Y)
              return(:X, Y) := data(X, Y).
            end
            """
        )
        steps = scan_steps(system, "p", 2)
        data_scan = steps[-1]
        assert is_flat(data_scan)

    def test_constants_and_bound_vars_are_flat(self):
        system = make_system(
            """
            proc p(X:Y)
              return(X:Y) := in(X) & data(X, 1, Y).
            end
            """
        )
        data_scan = scan_steps(system, "p", 2)[-1]
        assert is_flat(data_scan)

    def test_anonymous_vars_are_flat(self):
        system = make_system(
            """
            proc p(:X)
              return(:X) := data(X, _, _).
            end
            """
        )
        assert is_flat(scan_steps(system, "p", 1)[-1])

    def test_repeated_fresh_var_not_flat(self):
        system = make_system(
            """
            proc p(:X)
              return(:X) := data(X, X).
            end
            """
        )
        assert not is_flat(scan_steps(system, "p", 1)[-1])

    def test_compound_with_vars_not_flat(self):
        system = make_system(
            """
            proc p(:X, Y)
              return(:X, Y) := data(p(X, Y), _).
            end
            """
        )
        assert not is_flat(scan_steps(system, "p", 2)[-1])

    def test_ground_compound_is_flat(self):
        system = make_system(
            """
            proc p(:Y)
              return(:Y) := data(p(1, 2), Y).
            end
            """
        )
        assert is_flat(scan_steps(system, "p", 1)[-1])


class TestFlatSemantics:
    def test_flat_and_general_paths_agree(self):
        # data(X, X) forces the general path; data(X, Y) & X = Y the flat
        # one.  Same answers.
        facts = [(1, 1), (1, 2), (2, 2), (3, 1)]
        a = make_system("out(X) := data(X, X).")
        b = make_system("out(X) := data(X, Y) & X = Y.", written_order=True)
        for system in (a, b):
            system.facts("data", facts)
            system.run_script()
        assert a.rows("out", 1) == b.rows("out", 1)

    def test_flat_path_with_constants(self):
        system = make_system("out(Y) := data(1, Y, 'tag').")
        system.facts(
            "data", [(1, 10, "tag"), (1, 20, "other"), (2, 30, "tag")]
        )
        system.run_script()
        assert rows_to_python(system.rows("out", 1)) == [(10,)]
