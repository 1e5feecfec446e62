"""The prose describes the code that exists.

Over ``docs/*.md``, README.md, DESIGN.md and EXPERIMENTS.md:

* every backticked ``repro.…`` dotted name resolves to a module or an
  attribute;
* every ``gluenail`` command-line flag and every ``CostCounters`` field
  is named in some doc;
* every backticked ``--flag`` is an option of ``gluenail`` or of
  ``bench/run.py``;
* every top-level key of a live server's ``stats`` reply is backticked in
  some doc;
* every trace event kind the source emits is backticked in some doc;
* the source tree in DESIGN.md section 4 lists exactly the packages and
  modules under ``src/repro``;
* the prose stays under a committed line ceiling.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro.core.cli
from repro.storage.stats import COUNTER_FIELDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
DOCS = sorted(ROOT.glob("docs/*.md")) + [ROOT / name for name in
                                         ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
TEXT = {path.relative_to(ROOT).as_posix(): path.read_text() for path in DOCS}
ALL_TEXT = "\n".join(TEXT.values())
# The lines of DOCS, counted as CI's "Prose lines" step counts them
# (``cat ... | wc -l``).  A change that cuts prose lowers the ceiling with
# it; one that raises the ceiling says so in CHANGES.md.
PROSE_CEILING = 2721


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def test_backticked_repro_names_resolve():
    missing = sorted(
        f"{doc}: {name}"
        for doc, text in TEXT.items()
        for span in re.findall(r"`([^`\n]+)`", text)
        for name in re.findall(r"\brepro(?:\.\w+)+", span)
        if not _resolves(name)
    )
    assert not missing


def _named(word: str) -> bool:
    return re.search(rf"(?<![\w-]){re.escape(word)}(?![\w-])", ALL_TEXT) is not None


CLI_FLAGS = sorted(set(re.findall(r'"(--[a-z][a-z-]*)"', inspect.getsource(repro.core.cli))))


@pytest.mark.parametrize("flag", CLI_FLAGS)
def test_every_cli_flag_is_documented(flag):
    assert _named(flag)


def test_backticked_flags_exist():
    known = set(CLI_FLAGS) | set(
        re.findall(r'"(--[a-z][a-z-]*)"', (ROOT / "bench" / "run.py").read_text())
    )
    # ``--p(args)`` is a Glue delete subgoal, not a flag.
    unknown = sorted(
        f"{doc}: {flag}"
        for doc, text in TEXT.items()
        for span in re.findall(r"`([^`\n]+)`", text)
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*(?![\w(-])", span)
        if flag not in known
    )
    assert not unknown


@pytest.mark.parametrize("counter", COUNTER_FIELDS)
def test_every_cost_counter_is_documented(counter):
    assert _named(counter)


def _design_tree() -> dict:
    """DESIGN.md section 4's tree: ``{package dir or "": [module files]}``."""
    section = TEXT["DESIGN.md"].split("## 4. Architecture", 1)[1]
    block = section.split("```", 2)[1]
    tree: dict = {}
    package = ""
    for line in block.splitlines()[1:]:
        head = re.match(r"\s{2}(\w+)/", line)
        if head:
            package = head.group(1)
            tree.setdefault(package, [])
        elif re.match(r"\s{2}\w+\.py", line):
            package = ""
        tree.setdefault(package, []).extend(re.findall(r"\b\w+\.py\b", line))
    return tree


def test_design_tree_matches_the_source():
    listed = {
        (package, module) for package, modules in _design_tree().items() for module in modules
    }
    actual = {
        (path.parent.name if path.parent != SRC else "", path.name)
        for path in SRC.rglob("*.py")
        if path.name != "__init__.py"
    }
    assert listed == actual


def _live_stats_keys(tmp_path) -> set:
    """Top-level keys of a `stats` reply from a durable server whose
    session has compiled rules, so every optional block is present."""
    from repro.server.client import Client
    from repro.server.server import GlueNailServer

    with GlueNailServer(db_dir=str(tmp_path), program="p(X) :- q(X).").start() as server:
        with Client(port=server.port, timeout=30) as client:
            client.facts("q", [(1,)])
            client.query("p(X)?")
            return set(client.stats())


def test_every_stats_block_is_documented(tmp_path):
    missing = sorted(key for key in _live_stats_keys(tmp_path) if f"`{key}`" not in ALL_TEXT)
    assert not missing


TRACE_CALLS = {"event", "span", "_instrumented_entry"}


def _trace_kinds() -> set:
    """The string-literal first argument of every ``.event(...)``,
    ``.span(...)`` and ``_instrumented_entry(...)`` call under
    ``src/repro``, plus the two round kinds seminaive passes as a variable."""
    kinds = {"round", "incremental_round"}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) in TRACE_CALLS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                kinds.add(node.args[0].value)
    return kinds


def test_every_trace_kind_is_documented():
    missing = sorted(kind for kind in _trace_kinds() if f"`{kind}`" not in ALL_TEXT)
    assert not missing


def test_prose_stays_under_its_ceiling():
    total = sum(text.count("\n") for text in TEXT.values())
    assert total <= PROSE_CEILING, f"{total} prose lines, ceiling {PROSE_CEILING}"
