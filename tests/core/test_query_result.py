"""QueryResult: list compatibility, resolution chain, unified rows()."""

import pytest

from repro.core.query import rows_to_python
from repro.core.result import QueryResult
from repro.core.system import GlueNailSystem
from repro.errors import GlueNailError, GlueRuntimeError
from repro.terms.term import Num, mk


def _system():
    system = GlueNailSystem()
    system.load(
        """
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y) & edge(Y, Z).

        module m;
        export neighbors(X: Y);
        proc neighbors(X: Y)
          return(X: Y) := in(X) & edge(X, Y).
        end
        end
        """
    )
    system.facts("edge", [(1, 2), (2, 3), (3, 4)])
    return system


class TestResolutionChain:
    def test_nail_predicate_wins(self):
        result = _system().query("path(1, Y)?")
        assert result.resolution == "nail"
        assert result.to_python() == [(1, 2), (1, 3), (1, 4)]

    def test_edb_relation_second(self):
        result = _system().query("edge(1, Y)?")
        assert result.resolution == "edb"
        assert result.to_python() == [(1, 2)]

    def test_exported_procedure_fallback(self):
        result = _system().query("neighbors(2, Y)?")
        assert result.resolution == "procedure"
        assert result.to_python() == [(2, 3)]

    def test_procedure_fallback_needs_bound_prefix(self):
        with pytest.raises(GlueNailError, match="bound"):
            _system().query("neighbors(X, Y)?")

    def test_unknown_predicate_is_empty_not_error(self):
        result = _system().query("nothing(1, X)?")
        assert result == []
        assert result.resolution == "none"

    def test_magic_resolution(self):
        result = _system().query_magic("path(1, Y)?")
        assert result.resolution == "magic"
        assert sorted(result.to_python()) == [(1, 2), (1, 3), (1, 4)]


class TestListCompatibility:
    """Every entry point's result behaves exactly like the old bare list."""

    def test_query_result_is_a_list(self):
        result = _system().query("path(1, Y)?")
        assert isinstance(result, list)
        assert isinstance(result, QueryResult)
        assert len(result) == 3
        assert result[0] == (Num(1), Num(2))
        assert result[-2:] == [(Num(1), Num(3)), (Num(1), Num(4))]
        assert result == [(mk(1), mk(2)), (mk(1), mk(3)), (mk(1), mk(4))]
        assert list(reversed(result))[0] == (Num(1), Num(4))
        assert rows_to_python(result) == [(1, 2), (1, 3), (1, 4)]

    def test_every_entry_point_returns_query_result(self):
        system = _system()
        results = [
            system.query("path(1, Y)?"),
            system.query_magic("path(1, Y)?"),
            system.call("neighbors", [(1,)]),
            system.rows("path", 2),
            system.rows("edge", 2),
        ]
        for result in results:
            assert isinstance(result, QueryResult)
            assert isinstance(result, list)
            assert result.stats is not None
            assert result.stats.rows == len(result)

    def test_stats_and_plan_metadata(self):
        result = _system().query("path(1, Y)?")
        assert result.stats.resolution == "nail"
        assert result.stats.elapsed_s >= 0.0
        assert result.stats.counters["inserts"] > 0
        assert result.stats.nonzero["inserts"] > 0
        assert "path(X, Z) :- path(X, Y) & edge(Y, Z)." in result.plan
        assert result.trace == []  # tracing off by default

    def test_procedure_plan_is_the_explain_text(self):
        result = _system().call("neighbors", [(1,)])
        assert "proc neighbors/2" in result.plan
        assert "SCAN" in result.plan


class TestUnifiedRows:
    def test_rows_resolves_idb(self):
        system = _system()
        result = system.rows("path", 2)
        assert result.resolution == "nail"
        assert len(result) == 6
        # Canonical order: the engine's sorted extension.
        assert result == system.engine.materialize(mk("path"), 2).sorted_rows()

    def test_rows_resolves_edb(self):
        result = _system().rows("edge", 2)
        assert result.resolution == "edb"
        assert len(result) == 3

    def test_rows_unknown_name_is_empty(self):
        result = _system().rows("ghost", 2)
        assert result == [] and result.resolution == "none"


class TestCallModuleFilter:
    SOURCE = """
        module a;
        export pick(:X);
        proc pick(:X)
          return(:X) := item(X).
        end
        end

        module b;
        export pick(:X, Y);
        proc pick(:X, Y)
          return(:X, Y) := pair(X, Y).
        end
        end
    """

    def _system(self):
        system = GlueNailSystem()
        system.load(self.SOURCE)
        system.facts("item", [(1,), (2,)])
        system.facts("pair", [(1, 10)])
        return system

    def test_module_narrows_arity_candidates(self):
        # Same name at two arities in different modules: module= must
        # disambiguate instead of reporting the arity as ambiguous.
        system = self._system()
        assert sorted(system.call("pick", module="a").to_python()) == [(1,), (2,)]
        assert system.call("pick", module="b").to_python() == [(1, 10)]

    def test_without_module_still_ambiguous(self):
        with pytest.raises(GlueRuntimeError, match="several arities"):
            self._system().call("pick")

    def test_unknown_module_reports_module(self):
        with pytest.raises(GlueRuntimeError, match="module z"):
            self._system().call("pick", module="z")


class TestNonFlatQueryCharges:
    """A repeated variable or a compound pattern is matched row by row; the
    read is charged as one full scan, like a flat one."""

    @staticmethod
    def _system():
        system = GlueNailSystem()
        system.load("p(X, Y) :- e(X, Y).\nq(X, Y) :- f(X, Y).")
        system.facts("e", [(1, 1), (1, 2), (2, 2), (3, 4)])
        system.facts("f", [(("g", 1), 2), (("g", 3), 4), (("h", 1), 5)])
        system.query("p(X, Y)?")  # materialize both predicates first
        system.query("q(X, Y)?")
        return system

    @pytest.mark.parametrize(
        "text, resolution, rows, scanned",
        [
            ("e(X, X)?", "edb", [(1, 1), (2, 2)], 4),
            ("p(X, X)?", "nail", [(1, 1), (2, 2)], 4),
            ("f(g(X), Y)?", "edb", [(("g", 1), 2), (("g", 3), 4)], 3),
            ("q(g(X), Y)?", "nail", [(("g", 1), 2), (("g", 3), 4)], 3),
        ],
    )
    def test_scan_is_charged(self, text, resolution, rows, scanned):
        result = self._system().query(text)
        assert result.resolution == resolution
        assert result.to_python() == rows
        assert result.stats.counters["tuples_scanned"] == scanned
