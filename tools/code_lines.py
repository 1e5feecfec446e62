"""Count code lines per Python file or package.

A code line is a physical line that carries at least one token of code.
Blank lines, comment-only lines and docstrings (the leading string
statement of a module, class or function) do not count; a line holding
code and a trailing comment does.  This is the rule the line budgets in
ROADMAP.md use.

Usage::

    python tools/code_lines.py src/repro/nail src/repro/core/system.py

Each argument is a file or a directory (searched recursively for
``*.py``).  One line per argument is printed, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, List, Set

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOC_OWNERS) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """The number of code lines in one module's source text."""
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def count_file(path: Path) -> int:
    return count_source(path.read_text(encoding="utf-8"))


def python_files(target: Path) -> List[Path]:
    if target.is_dir():
        return sorted(target.rglob("*.py"))
    return [target]


def main(argv: Iterable[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    args = parser.parse_args(argv)
    total = 0
    for target in args.paths:
        if not target.exists():
            parser.error(f"no such file or directory: {target}")
        subtotal = sum(count_file(path) for path in python_files(target))
        print(f"{subtotal:7d}  {target}")
        total += subtotal
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
