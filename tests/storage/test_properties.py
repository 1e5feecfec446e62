"""Property-based tests of storage invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.adaptive import AlwaysIndexPolicy, NeverIndexPolicy
from repro.storage.database import Database
from repro.storage.persist import load_database, save_database
from repro.storage.relation import Relation
from repro.storage.uniondiff import uniondiff
from repro.terms.matching import match_tuple
from repro.terms.term import Atom, Num, Var
from tests.conftest import ground_terms

rows2 = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)).map(
        lambda t: (Num(t[0]), Num(t[1]))
    ),
    max_size=40,
)

# Insert/delete scripts: True = insert, False = delete.
ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, 5), st.integers(0, 5)), max_size=60
)


@given(ops)
def test_relation_behaves_like_a_set(script):
    """A relation is observationally a set of tuples."""
    relation = Relation(Atom("r"), 2)
    model = set()
    for insert, a, b in script:
        row = (Num(a), Num(b))
        if insert:
            assert relation.insert(row) == (row not in model)
            model.add(row)
        else:
            assert relation.delete(row) == (row in model)
            model.discard(row)
        assert len(relation) == len(model)
    assert set(relation.rows()) == model


@given(rows2, st.integers(0, 5))
def test_select_agrees_with_bruteforce(rows, key):
    relation = Relation(Atom("r"), 2)
    relation.insert_many(rows)
    pattern = (Num(key), Var("Y"))
    got = sorted(b["Y"].value for b in relation.select(pattern))
    expected = sorted(b.value for a, b in set(rows) if a == Num(key))
    assert got == expected


@given(rows2, st.integers(0, 5))
def test_index_transparent(rows, key):
    """An index never changes results, only costs."""
    plain = Relation(Atom("r"), 2, index_policy=NeverIndexPolicy())
    indexed = Relation(Atom("r"), 2, index_policy=AlwaysIndexPolicy())
    plain.insert_many(rows)
    indexed.insert_many(rows)
    pattern = (Num(key), Var("Y"))
    for _ in range(3):  # repeated queries trigger adaptive builds
        left = sorted(b["Y"].value for b in plain.select(pattern))
        right = sorted(b["Y"].value for b in indexed.select(pattern))
        assert left == right


@given(rows2, rows2)
def test_uniondiff_laws(old, delta):
    relation = Relation(Atom("r"), 2)
    relation.insert_many(old)
    old_set = set(relation.rows())
    new = uniondiff(relation, delta)
    assert set(new) == set(delta) - old_set
    assert set(relation.rows()) == old_set | set(delta)
    assert len(new) == len(set(new))  # no duplicates in the returned delta


@given(st.lists(st.tuples(ground_terms, ground_terms), max_size=12))
@settings(max_examples=25, deadline=None)
def test_persist_roundtrip_arbitrary_terms(rows):
    db = Database()
    for a, b in rows:
        db.relation("t", 2).insert((a, b))
    import tempfile, os

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edb.gnd")
        save_database(db, path)
        loaded = load_database(path)
    original = db.get("t", 2)
    restored = loaded.get("t", 2)
    if original is None:
        assert restored is None or len(restored) == 0
    else:
        assert restored.sorted_rows() == original.sorted_rows()
