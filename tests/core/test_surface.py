"""The product is one configuration: no entry point selects an oracle mode.

Nested-loop joins, the row engine, written body order, the naive
fixpoint and the VM's materialize-every-step, no-dedup and run-time
dispatch strategies are differential baselines.  They are reachable only
through ``repro.baselines.reference``; the layers below take one
``oracles`` value instead of a string per mode.  The server has one read path (a
published MVCC snapshot), so it has no lock-serialized read mode either.
Parameters no caller sets are gone too, and every ``__all__`` name
resolves (ruff's F822, checked without ruff), and the product imports
nothing beyond the standard library.  Package ``__init__`` files import
nothing, so an import loads only the modules it names and theirs.
"""

import ast
import importlib
import inspect
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.bindings import analyze_bindings, subgoal_binds
from repro.core.cli import main
from repro.core.repl import Repl
from repro.core.system import GlueNailSystem
from repro.nail.bodyeval import eval_rule_body_batch
from repro.nail.engine import NailEngine, magic_query
from repro.nail.naive import naive_eval
from repro.nail.nail2glue import compile_rules_to_glue
from repro.nail.rules import check_rule_safety
from repro.nail.seminaive import seminaive_eval
from repro.opt.passes import optimize
from repro.server.server import GlueNailServer
from repro.vm.compiler import ProgramCompiler
from repro.vm.machine import ExecContext

RETIRED = {
    "join_mode", "order_mode", "batch_mode", "nail_strategy",
    "strategy", "dedup_on_break", "deref_at_compile_time",
}


def parameters(fn):
    return set(inspect.signature(fn).parameters)


@pytest.mark.parametrize("entry", [GlueNailSystem, GlueNailServer])
def test_product_constructors_take_no_oracle_mode(entry):
    assert not (RETIRED | {"oracles"}) & parameters(entry)


@pytest.mark.parametrize(
    "layer",
    [
        NailEngine, magic_query, seminaive_eval, naive_eval,
        eval_rule_body_batch, ExecContext, ProgramCompiler,
    ],
)
def test_layers_take_one_oracles_value(layer):
    params = parameters(layer)
    assert not RETIRED & params
    assert "oracles" in params


@pytest.mark.parametrize(
    "fn, name",
    [
        (check_rule_safety, "demand_bound"),
        (analyze_bindings, "initially_bound"),
        (subgoal_binds, "callable_sigs"),
        (compile_rules_to_glue, "module_name"),
    ],
)
def test_unset_parameters_are_gone(fn, name):
    assert name not in parameters(fn)


def test_every_all_name_resolves():
    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        missing += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not missing


STDLIB_ONLY = """
import importlib, pkgutil, sys
before = set(sys.modules)
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - {"repro"} - set(sys.stdlib_module_names)))
"""


def _python(script: str, *args: str) -> str:
    """What ``script`` prints in a fresh interpreter that imports from src/."""
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_product_imports_only_the_standard_library():
    assert _python(STDLIB_ONLY).strip() == "[]"


LOADED = """
import importlib, sys
importlib.import_module(sys.argv[1])
print(" ".join(name for name in sys.modules if name.startswith("repro")))
"""


def _loaded_by(module: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after one import."""
    return set(_python(LOADED, module).split())


@pytest.mark.parametrize(
    "module, unloaded",
    [
        # The client speaks JSON: it needs no engine.
        ("repro.server.client",
         ("repro.nail", "repro.vm", "repro.lang", "repro.storage", "repro.core.system")),
        # Modules that one command needs load when that command runs.
        ("repro.core.cli",
         ("repro.lang.pretty", "repro.nail.nail2glue", "repro.obs.report",
          "repro.server.client", "repro.core.repl", "repro.baselines")),
    ],
    ids=["client", "cli"],
)
def test_an_import_loads_only_what_it_uses(module, unloaded):
    loaded = _loaded_by(module)
    assert module in loaded
    assert not sorted(
        name for name in loaded
        if any(name == prefix or name.startswith(prefix + ".") for prefix in unloaded)
    )


def test_package_init_files_import_nothing():
    packages = Path(repro.__file__).parent.glob("*/__init__.py")
    importing = sorted(
        init.parent.name
        for init in packages
        if any(isinstance(node, (ast.Import, ast.ImportFrom))
               for node in ast.walk(ast.parse(init.read_text())))
    )
    assert not importing
    assert _loaded_by("repro") == {"repro"}


def test_no_module_imports_dataclasses():
    # A dataclass's methods are generated by exec at every import; product
    # classes are plain __slots__ classes (repro.record for value classes).
    importing = sorted(
        str(path.relative_to(Path(repro.__file__).parent))
        for path in Path(repro.__file__).parent.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    )
    assert not importing


SERVE_LOADS = """
import sys
before = set(sys.modules)
import repro.core.cli, repro.server.server, repro.txn.store, repro.server.gcpolicy
print(" ".join(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before))))
"""


def test_a_server_start_loads_no_code_generators():
    assert _python(SERVE_LOADS).split() == []


def test_server_has_no_lock_read_mode():
    assert "mvcc" not in parameters(GlueNailServer)


def test_optimize_takes_a_pipeline_not_an_order_mode():
    assert "order_mode" not in parameters(optimize)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "PROGRAM", "--join-mode", "hash"],
        ["query", "PROGRAM", "p(X)?", "--order-mode", "program"],
        ["check", "PROGRAM", "--batch-mode", "row"],
        ["run", "PROGRAM", "--strategy", "materialized"],
        ["query", "PROGRAM", "p(X)?", "--no-dedup"],
        # An unusable --db: were the flag accepted, the command would fail
        # to open it instead of starting a session or a server.
        ["repl", "--batch-mode", "row", "--db", "BADDIR"],
        ["serve", "--batch-mode", "row", "--db", "BADDIR", "--port", "0"],
        ["serve", "--no-mvcc", "--db", "BADDIR", "--port", "0"],
    ],
)
def test_cli_mode_flags_are_argparse_errors(argv, tmp_path, capsys):
    program = tmp_path / "p.glue"
    program.write_text("p(1).\n")
    paths = {"PROGRAM": str(program), "BADDIR": str(program / "db")}
    with pytest.raises(SystemExit) as exc:
        main([paths.get(arg, arg) for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_serve_options_are_unchanged(capsys):
    """The serve process's collector policy is set in code: no flag and no
    server parameter selects it."""
    with pytest.raises(SystemExit):
        main(["serve", "--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--db", "--program", "--edb", "--host", "--port", "--no-sync"}
    assert parameters(GlueNailServer) == {"db_dir", "program", "host", "port", "sync", "db"}


def test_repl_answers_batch_as_an_unknown_command():
    out = io.StringIO()
    Repl(out=out).feed(".batch row\n")
    assert "unknown command .batch" in out.getvalue()


def test_repl_answers_strategy_as_an_unknown_command():
    out = io.StringIO()
    Repl(out=out).feed(".strategy materialized\n")
    assert "unknown command .strategy" in out.getvalue()
