"""The front end's output, pinned: tokens and ASTs of a fixed corpus.

Each text's ``repr(tokenize(text))`` and ``repr(parse_program(text))``
(``parse_query`` for query texts) is hashed with sha256 and compared
with the digests below, so a rewrite of the lexer or the parser that
changes any token, position or AST node fails here.  The corpus is
``bench/program.glue``, the Glue program texts in ``examples/*.py``,
E1's synthetic programs of 10, 50 and 200 statements, and the three
query shapes of a ``point_reads`` page.  A property test adds that any
text either tokenizes and parses or raises a ``CompileError``.

Print the current digests with
``PYTHONPATH=src:. python tests/lang/test_front_end_identity.py``.
"""

from __future__ import annotations

import ast
import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks._workloads import generate_program
from repro.errors import CompileError
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program, parse_query

ROOT = Path(__file__).resolve().parents[2]

POINT_READ_QUERIES = ("paper(p8670, V, Y)?", "wrote(A, p8670)?", "coauthor(a1234, B)?")


def _example_programs():
    """Module-level upper-case string constants of ``examples/*.py``."""
    for path in sorted((ROOT / "examples").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        yield f"examples/{path.name}:{target.id}", node.value.value


def corpus():
    """``(name, text, parse)`` for every text the digests cover."""
    yield "bench/program.glue", (ROOT / "bench" / "program.glue").read_text(), parse_program
    for name, text in _example_programs():
        yield name, text, parse_program
    for n in (10, 50, 200):
        yield f"generate_program({n})", generate_program(n), parse_program
    for text in POINT_READ_QUERIES:
        yield text, text, parse_query


def digests(text, parse):
    return (hashlib.sha256(repr(tokenize(text)).encode()).hexdigest(),
            hashlib.sha256(repr(parse(text)).encode()).hexdigest())


EXPECTED = {
    'bench/program.glue': ('6284bc7fde9aba8a1cc3ca093a05718fae6d81b3f3cfadb9c8e5a5da57535807', 'da9cbd229698cb3059fbfa44b1a4b9ad079ca8c573d1a274df088da8d84302f9'),
    'examples/bill_of_materials.py:PROGRAM': ('46d7272c63b92d42ba029943448593f9fe14eded13e6976a2ca177be87aadc5e', '23f53e9050f7fb75df0d80e76808087db8c04e927102accdbb7013a0cc2a6d5b'),
    'examples/cad_select.py:CAD_MODULE': ('dcb2d59da80592db0d1ad8906930deaa6bc73b6913a22f144cfe592f2e941d05', 'ea2f83a6f9625d3528db9e22d641fceeec8c7bad700ae1d58230fd6794215e07'),
    'examples/graph_analysis.py:RULES': ('b74f9ad56cecdbd6807b0fcf7837197d16f80f56c934d9060bcee6fa12881f27', 'bd454c78a84ffd0325397e7df34bd4117667cc42272cdb40d2a6b5c568b947dc'),
    'examples/graph_analysis.py:GLUE_TC': ('10dea77d9fe9529a33911887bea0f0eefc12a34bf4c3b0f6312f4016defa82df', 'aa15fa24a6a374e2b53e21f46e8965e9b5d1512abd70a595d5e259b54e0e1340'),
    'examples/payroll.py:PROGRAM': ('ed26e9a2dfc73b8354807b10ea7dd39272c15729a00c6a32abe357e4947f13b9', 'c3f524b85631dc13d0617c67f4f54b70c6a66603daf4aeed0f17ef72f7e9ece3'),
    'examples/quickstart.py:PROGRAM': ('38acd2ae7c06a971e4ad8029aca2ef811c20afbf1a2635c3ca6c9cf103788b23', '321607bbb9cfd985863d57f3611b73886269b7077e4d12cb4cbf6c081f151199'),
    'examples/university.py:PROGRAM': ('4287845f6c19cfa79d13b8ed9ad5e8ad8d6468c850ef0faf44a6fd244e1bcc16', '7d3e6bb6f150a7e6088887ac20834f804564418618ee979bcda27798f4f5a09a'),
    'generate_program(10)': ('e4b958c7dd2b91c172b13c8600515c7c92e96d5550aa644d4f7b2f7f7c62f61f', 'eea162b3ad86c056f1e529677158fc978476ba4216819fe03faf23d9d5c6d5bb'),
    'generate_program(50)': ('a589e4cdb58e4bcf7c7f05b7a9e5b0d471415928934c6636d522fc5dc6ea6c0c', '8ae06b14115d747e6ed871ed28110b9b1d4101ff5e2ca3f569bb0bb3fc528a75'),
    'generate_program(200)': ('80f26f1a72a783c2e034faa47c220c596434e2f75ae3c456dd3e7b8e45aa57aa', '47a98daccaecde6d1c4ffa5f53a8d0b7557cbc3119de690f3e7fecd4ef1cbeb5'),
    'paper(p8670, V, Y)?': ('f5f757da2dcc3211c4a05f3b9714b1786fc9b6d218699a5aaa8e0206b0b897d9', '0b629fdf5fbf44987c0ee2d8a2184e6c2ba3c57db44036927402622048805491'),
    'wrote(A, p8670)?': ('600d55768967294256274cbee477f9ca7160aa127e0d0421e07ec6f737282941', '206c6e8ef5fc0c267cf2d5c608bb554e8c516a04b4c4a32180a8841ec69f6543'),
    'coauthor(a1234, B)?': ('3143a910bfcae7062cf74dd16bdbb1eaa83d305d282a894e2da1454d794f65f0', '2660ce8e8c29368413be52df9b924100d4c2f3dfb0ebe5d79af78eab39b365e1'),
}


CORPUS = {name: (text, parse) for name, text, parse in corpus()}


@pytest.mark.parametrize("name", list(CORPUS))
def test_front_end_digests(name):
    assert digests(*CORPUS[name]) == EXPECTED[name]


def test_corpus_covers_every_example():
    assert set(EXPECTED) == set(CORPUS)
    assert sum(name.startswith("examples/") for name in CORPUS) >= 6


_GLUE_ALPHABET = st.sampled_from(
    list("abpqXYZ_019 \t\n'\\%/*.,;:()[]{}&|!=<>+-?eE\"$é²½ⅰ中")
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text(_GLUE_ALPHABET, max_size=40) | st.text(max_size=20))
def test_any_text_compiles_or_raises_a_compile_error(text):
    # '²' passes str.isdigit but not int(): it once escaped as a ValueError.
    for front in (tokenize, parse_query):
        try:
            front(text)
        except CompileError:
            pass


if __name__ == "__main__":
    for name, text, parse in corpus():
        print(f"    {name!r}: {digests(text, parse)!r},")
