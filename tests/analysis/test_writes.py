"""The compiler's two procedure bits: ``fixed`` (paper Section 3.1's
ordering property) and ``writes`` (the procedure may change the EDB).

Both come from one fixpoint over the call graph; ``writes`` has the
narrower leaf, so a procedure that only aggregates is fixed but writes
nothing."""

from pathlib import Path

import pytest

from repro.core.system import GlueNailSystem

ROOT = Path(__file__).resolve().parents[2]

PROGRAM = """
module ext_user;
export ticks(:T);
from clockmod import clock(:Now);
proc ticks(:T)
  return(:T) := clock(T).
end
end

proc edb_head(:)
  p(X) := e(X).
  return(:) := true.
end

proc dynamic_head(:)
  bucket(K)(V) := data(K, V).
  return(:) := true.
end

proc inserts(:X)
  return(:X) := e(X) & ++seen(X).
end

proc deletes(:X)
  return(:X) := e(X) & --seen(X).
end

proc calls_writer(:X)
  return(:X) := inserts(X).
end

proc locals_only(:X)
rels t(A);
  t(A) := e(A).
  t(A) += t(A).
  return(:X) := t(X).
end

proc aggregates(:N)
  return(:N) := e(X) & N = count(X).
end

proc calls_reader(:N)
  return(:N) := aggregates(N).
end
"""

# name -> (writes, fixed)
EXPECTED = {
    "edb_head": (True, True),
    "dynamic_head": (True, True),
    "inserts": (True, True),
    "deletes": (True, True),
    "calls_writer": (True, True),
    "ticks": (True, True),  # a foreign call may write anything
    "locals_only": (False, False),
    "aggregates": (False, True),
    "calls_reader": (False, True),
}


@pytest.fixture(scope="module")
def system():
    system = GlueNailSystem()
    system.register_foreign("clockmod", "clock", 1, 0, lambda ctx, rows: [])
    system.load(PROGRAM)
    system.load((ROOT / "bench" / "program.glue").read_text())
    return system


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_writes_and_fixed(system, name):
    proc = system.procedure(name)
    assert (proc.writes, proc.fixed) == EXPECTED[name]


def test_venue_report_is_fixed_but_writes_nothing(system):
    proc = system.procedure("venue_report")
    assert (proc.writes, proc.fixed) == (False, True)


def test_query_writes_follows_the_fallback_procedure(system):
    from repro.lang.parser import parse_query

    assert system.query_writes(parse_query("inserts(X)?"))
    assert not system.query_writes(parse_query("aggregates(N)?"))
    assert not system.query_writes(parse_query("coauthor(A, B)?"))
    assert not system.query_writes(parse_query("nothing_named_so(X)?"))


def test_an_update_inside_a_union_is_updating():
    from repro.analysis.fixedness import is_updating_subgoal
    from repro.lang.parser import parse_program

    stmt = parse_program("out(X) := e(X) & { f(X) | ++seen(X) }.").items[0]
    union = stmt.body[-1]
    assert is_updating_subgoal(union)
    assert not is_updating_subgoal(stmt.body[0])
    assert is_updating_subgoal(stmt.body[0], lambda subgoal: True)


def test_compiling_declares_nothing():
    system = GlueNailSystem()
    system.load("edb stock(Item, N);\n" + PROGRAM.split("proc edb_head")[0])
    version, keys = system.db.version, system.db.sorted_keys()
    assert [str(name) for name, _ in keys] == ["stock"]  # load declared it
    system.register_foreign("clockmod", "clock", 1, 0, lambda ctx, rows: [])
    system.compile()
    assert (system.db.version, system.db.sorted_keys()) == (version, keys)
