"""Tests for ``tools/code_lines.py``, the code-line counter."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line


# a comment-only line
class A:
    """Class docstring."""

    x = """not a docstring:
    an assigned string counts"""

    def f(self):
        """Function
        docstring."""
        return (1,
                2)
'''


def test_skips_docstrings_comments_and_blank_lines():
    # import, class, x = (2 lines), def, return (2 lines)
    assert code_lines.count_source(SOURCE) == 7


def test_empty_module():
    assert code_lines.count_source("") == 0
    assert code_lines.count_source('"""Only a docstring."""\n') == 0


def test_cli_prints_per_target_and_total(tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("x = 1\n\ny = 2\n")
    (pkg / "b.py").write_text("# nothing\n")
    single = tmp_path / "c.py"
    single.write_text("z = 3\n")
    assert code_lines.main([str(pkg), str(single)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", str(pkg)], ["1", str(single)], ["3", "total"],
    ]
