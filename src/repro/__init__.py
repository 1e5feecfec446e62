"""Glue-Nail: a deductive database system.

A from-scratch Python reproduction of *Glue-Nail: A Deductive Database
System* (Phipps, Derr & Ross, SIGMOD 1991): the procedural Glue language,
the declarative NAIL! rule language, HiLog-style higher-order terms and
set-valued attributes, the compile-time module system, the NAIL!-to-Glue
compiler, and the main-memory relational back end with uniondiff and
adaptive indexing.

Quick start::

    from repro import GlueNailSystem

    system = GlueNailSystem()
    system.load('''
        path(X, Y) :- edge(X, Y).
        path(X, Z) :- path(X, Y) & edge(Y, Z).
    ''')
    system.facts("edge", [(1, 2), (2, 3), (3, 4)])
    for row in system.query("path(1, Y)?"):
        print(row)

Durable, multi-client use (see :mod:`repro.txn` and :mod:`repro.server`)::

    system = GlueNailSystem.open("state/")    # WAL + checkpoint, recovered
    with system.transaction():
        system.fact("edge", 4, 5)             # atomic, durable at commit

    # gluenail serve --db state/   +   gluenail connect   on the CLI
"""

import importlib

__version__ = "1.0.0"

# The quick-start names, each resolved from its defining module on first
# access (PEP 562), so that ``import repro`` loads no submodule.
_HOMES = {
    "Atom": "repro.terms.term",
    "CompileError": "repro.errors",
    "Compound": "repro.terms.term",
    "Database": "repro.storage.database",
    "GlueNailError": "repro.errors",
    "GlueNailSystem": "repro.core.system",
    "GlueRuntimeError": "repro.errors",
    "Num": "repro.terms.term",
    "QueryResult": "repro.core.result",
    "QueryStats": "repro.obs.query_stats",
    "Term": "repro.terms.term",
    "UnsafeRuleError": "repro.errors",
    "Var": "repro.terms.term",
    "mk": "repro.terms.term",
    "rows_to_python": "repro.core.query",
    "term_to_python": "repro.core.query",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(home), name)
    return value
