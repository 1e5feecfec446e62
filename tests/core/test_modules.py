"""Tests for the module system (paper Section 6): imports, exports,
visibility, and mixed Glue + NAIL! modules."""

import pytest

from repro.core.query import rows_to_python
from repro.errors import CompileError
from tests.conftest import make_system


class TestImportsExports:
    TWO_MODULES = """
    module graphlib;
    export reachable(X:Y);
    edb link(A, B);
    proc reachable(X:Y)
    rels seen(A, B);
      seen(X, Y) := in(X) & link(X, Y).
      repeat
        seen(X, Y) += seen(X, Z) & link(Z, Y).
      until unchanged(seen(_, _));
      return(X:Y) := seen(X, Y).
    end
    end

    module app;
    export report(:X, Y);
    from graphlib import reachable(X:Y);
    edb origin(X);
    proc report(:X, Y)
      return(:X, Y) := origin(X) & reachable(X, Y).
    end
    end
    """

    def test_cross_module_procedure_call(self):
        system = make_system(self.TWO_MODULES)
        system.facts("link", [(1, 2), (2, 3)])
        system.facts("origin", [(1,)])
        rows = rows_to_python(system.call("report"))
        assert sorted(rows) == [(1, 2), (1, 3)]

    def test_exported_procs_callable_by_name(self):
        system = make_system(self.TWO_MODULES)
        system.facts("link", [(1, 2)])
        assert rows_to_python(system.call("reachable", [(1,)])) == [(1, 2)]

    def test_exporting_undeclared_predicate_rejected(self):
        with pytest.raises(CompileError, match="exports undeclared"):
            make_system("module m;\nexport nothing(:X);\nend").compile()

    def test_import_of_nail_predicate(self):
        source = """
        module rules;
        export anc(X, Y);
        anc(X, Y) :- par(X, Y).
        anc(X, Z) :- anc(X, Y) & par(Y, Z).
        end

        module app;
        export roots(:X);
        from rules import anc(X, Y);
        proc roots(:X)
          return(:X) := anc(X, _) & !anc(_, X).
        end
        end
        """
        system = make_system(source)
        system.facts("par", [("a", "b"), ("b", "c")])
        assert rows_to_python(system.call("roots")) == [("a",)]

    def test_strict_import_of_unknown_module_rejected(self):
        source = """
        module app;
        from nowhere import thing(:X);
        end
        """
        with pytest.raises(CompileError, match="cannot resolve import"):
            make_system(source, strict=True).compile()

    def test_lenient_import_assumed_foreign(self):
        source = """
        module app;
        export go(:X);
        from nowhere import thing(:X);
        proc go(:X)
          return(:X) := thing(X).
        end
        end
        """
        system = make_system(source)
        system.compile()  # compiles; fails only if actually called


class TestVisibility:
    def test_local_relation_shadows_edb(self):
        # "Declarations of local relations 'hide' the declarations of
        # other predicates with which they unify."
        source = """
        module m;
        export probe(:X);
        edb data(V);
        proc probe(:X)
        rels data(V);
          data(1) := true.
          return(:X) := data(X).
        end
        end
        """
        system = make_system(source)
        system.facts("data", [(99,)])
        rows = rows_to_python(system.call("probe"))
        assert rows == [(1,)]  # the local, not the EDB tuple
        # And the EDB relation is untouched.
        assert rows_to_python(system.rows("data", 1)) == [(99,)]

    def test_mixed_glue_and_nail_in_one_module(self):
        # "a module can contain both Glue procedures and NAIL! rules".
        source = """
        module mixed;
        export best(:X);
        edb score(P, S);
        good(P) :- score(P, S) & S > 10.
        proc best(:X)
          return(:X) := good(X).
        end
        end
        """
        system = make_system(source)
        system.facts("score", [("a", 5), ("b", 15)])
        assert rows_to_python(system.call("best")) == [("b",)]

    def test_fixedness_propagates_across_modules(self):
        # A proc calling an imported fixed proc is itself fixed.
        source = """
        module io_mod;
        export log_it(X:);
        proc log_it(X:)
          return(X:) := in(X) & ++logged(X).
        end
        end

        module app;
        export work(:X);
        from io_mod import log_it(X:);
        proc work(:X)
          return(:X) := item(X) & log_it(X).
        end
        end
        """
        system = make_system(source)
        compiled = system.compile()
        assert compiled.find_proc("log_it", 1).fixed
        assert compiled.find_proc("work", 1).fixed

    def test_modules_are_compile_time_only(self):
        # "Modules are purely a compile time concept": the EDB namespace
        # is global, so two modules share relations by name.
        source = """
        module writer;
        export put(:)    ;
        edb shared(V);
        proc put(:)
          shared(1) += true.
          return(:) := true.
        end
        end

        module reader;
        export get(:X);
        edb shared(V);
        proc get(:X)
          return(:X) := shared(X).
        end
        end
        """
        system = make_system(source)
        system.call("put")
        assert rows_to_python(system.call("get")) == [(1,)]
