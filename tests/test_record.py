"""The value-class base: equality, hash, repr and immutability without
generated code, matching what a frozen dataclass of the same fields did."""

import dataclasses

import pytest

from repro.lang.ast import (
    AssignStmt,
    BinOp,
    CondDisjunction,
    GroupBySubgoal,
    PredSubgoal,
    UnionSubgoal,
)
from repro.opt.literal import classify_join_columns
from repro.opt.plan import PlanStep
from repro.oracles import Oracles
from repro.record import Record
from repro.terms.term import Atom, Compound, Num, Var

X, Y = Var("X"), Var("Y")
P = PredSubgoal(Atom("p"), (X, Num(1)))

SAMPLES = [
    P,
    BinOp("+", X, Num(2)),
    GroupBySubgoal((X, Y)),
    GroupBySubgoal((X,)),
    PlanStep(0, P, "scan", est_rows=3.0, probe_cols=(1,)),
    Oracles(written_order=True),
]


def _as_dataclass(record):
    """The frozen dataclass the record's class replaced, and its instance."""
    names = type(record)._fields
    twin = dataclasses.make_dataclass(type(record).__qualname__, names, frozen=True)
    return twin(*(getattr(record, name) for name in names))


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_hash_eq_and_repr_match_the_frozen_dataclass(record):
    twin = _as_dataclass(record)
    values = tuple(getattr(record, name) for name in type(record)._fields)
    assert hash(record) == hash(twin) == hash(values)
    assert repr(record) == repr(twin)
    clone = type(record).__new__(type(record))
    for name in type(record).__slots__:
        object.__setattr__(clone, name, getattr(record, name))
    assert clone == record and not clone != record


def test_equality_needs_the_same_class():
    alternatives = (((P,),))
    union, disjunction = UnionSubgoal(alternatives), CondDisjunction(alternatives)
    assert hash(union) == hash(disjunction)
    assert union != disjunction
    assert union != (alternatives,)
    assert len({union: 1, disjunction: 2}) == 2


def test_uncompared_fields_are_not_part_of_the_value():
    first = AssignStmt(Atom("out"), (X,), ":=", (P,), line=1)
    second = AssignStmt(Atom("out"), (X,), ":=", (P,), line=9)
    assert first == second and hash(first) == hash(second)
    assert second.line == 9 and "line" not in repr(second)
    term = Compound(Atom("f"), (X,))
    assert "_hash" not in repr(term)
    plan = classify_join_columns(Atom("p"), (X, Num(1)), frozenset(), negated=False)
    assert plan.strategy == "broadcast" and plan.vm_strategy == "probe"
    assert "strategy" not in type(plan)._fields


@pytest.mark.parametrize("record", [P, X, Compound(Atom("f"), (X,)), Oracles()],
                         ids=lambda r: type(r).__name__)
def test_fields_refuse_assignment(record):
    name = type(record).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1


def test_records_keep_no_instance_dict():
    assert not hasattr(P, "__dict__")
    assert issubclass(PredSubgoal, Record) and PredSubgoal.__slots__ == ("pred", "args", "negated")
