"""Wire protocol: JSON-lines encode/decode and payload shaping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import rows_to_python
from repro.core.system import GlueNailSystem
from repro.server.client import RemoteResult
from repro.server.protocol import (
    ProtocolError,
    columns_payload,
    decode,
    decode_values,
    encode,
    error_response,
    notification_frame,
    ok_response,
    rows_payload,
    stats_payload,
)
from repro.sub.queue import Notification
from repro.terms.printer import tuple_to_str
from repro.terms.term import Atom, Compound, Num

# Values that stress the lowering both ways: atoms that print quoted
# ('' and reserved names included), non-ASCII text, ints beyond 64 bits,
# integral floats (which must stay floats: fact syntax prints 1.0), and
# compounds whose functor is itself a compound (HiLog set names).
wire_atoms = st.one_of(
    st.sampled_from(["", "a", "it's", "New York", "count", "Ünïcødé", "tab\there",
                     "back\\slash", "line\nbreak", "X"]),
    st.text(max_size=5),
).map(Atom)
wire_numbers = st.one_of(
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.floats(allow_nan=False),
    st.integers(min_value=-5, max_value=5).map(float),
).map(Num)
wire_terms = st.recursive(
    st.one_of(wire_atoms, wire_numbers),
    lambda children: st.builds(
        Compound,
        functor=st.one_of(wire_atoms, children),
        args=st.lists(children, min_size=1, max_size=3).map(tuple),
    ),
    max_leaves=6,
)
wire_rows = st.integers(min_value=0, max_value=4).flatmap(
    lambda arity: st.lists(st.tuples(*[wire_terms] * arity), max_size=8)
)


def over_the_wire(payload: dict) -> dict:
    return decode(encode(payload))


class TestCodec:
    def test_round_trip(self):
        payload = {"op": "query", "q": "p(1, X)?", "id": 3}
        assert decode(encode(payload)) == payload

    def test_one_line(self):
        assert "\n" not in encode({"op": "load", "source": "a(1).\nb(2)."})

    def test_bad_json_raises(self):
        with pytest.raises(ProtocolError):
            decode("{not json")

    def test_non_object_raises(self):
        with pytest.raises(ProtocolError):
            decode("[1, 2, 3]")

    def test_responses(self):
        ok = ok_response(7, rows=[])
        assert ok["ok"] is True and ok["id"] == 7
        err = error_response("nope", 7, kind="protocol")
        assert err["ok"] is False and err["kind"] == "protocol"


class TestPayloads:
    def test_rows_payload_carries_stats_and_resolution(self):
        system = GlueNailSystem()
        system.facts("edge", [(1, 2), (2, 3)])
        result = system.query("edge(1, X)?")
        payload = rows_payload(result)
        assert payload["count"] == 1 and payload["columns"] == [[1], [2]]
        assert decode_values(over_the_wire(payload)) == [(1, 2)]
        assert "rows" not in payload and "values" not in payload
        assert payload["resolution"] == "edb"
        assert payload["stats"]["rows"] == 1
        assert "counters" in payload["stats"]

    def test_stats_payload_none(self):
        assert stats_payload(None) is None

    def test_payload_is_json_serializable(self):
        import json

        system = GlueNailSystem()
        system.db.relation("point", 1).insert(
            (Compound(Atom("p"), (Num(3), Num(4))),)
        )
        payload = rows_payload(system.query("point(X)?"))
        text = json.dumps(payload)
        assert "p" in text


class TestColumns:
    @settings(max_examples=200, deadline=None)
    @given(wire_rows)
    def test_round_trip_matches_the_embedded_lowering_and_fact_syntax(self, rows):
        result = RemoteResult(over_the_wire(rows_payload(rows)))
        assert result == rows_to_python(rows)
        assert result.values is result
        assert result.facts == [tuple_to_str(row) for row in rows]

    def test_facts_keep_quoting_integral_floats_and_hilog_functors(self):
        set_name = Compound(Atom("students"), (Atom("cs99"),))
        rows = [(Atom("it's"), Num(1.0), Compound(set_name, (Atom("wilson"),))),
                (Atom(""), Num(-7), Compound(Atom("f"), (Num(2.5), Atom("New York"))))]
        result = RemoteResult(over_the_wire(rows_payload(rows)))
        # Num(1.0) is the integer 1: one representative per number.
        assert result.facts == [
            "('it\\'s', 1, students(cs99)(wilson))",
            "('', -7, f(2.5, 'New York'))",
        ]
        assert result[0][1] == 1 and isinstance(result[0][1], int)
        assert result[1][2] == ("f", 2.5, "New York")

    @pytest.mark.parametrize("query, values", [
        ("flag()?", [()]),          # nullary, true
        ("nope()?", []),            # nullary, false
        ("edge(5, X)?", []),        # arity 2, empty
        ("edge(1, X)?", [(1, 2)]),
    ])
    def test_nullary_and_empty_answers_stay_apart(self, query, values):
        system = GlueNailSystem()
        system.facts("flag", [()])
        system.facts("edge", [(1, 2)])
        payload = over_the_wire(rows_payload(system.query(query)))
        assert payload["count"] == len(values)
        result = RemoteResult(payload)
        assert result == values
        assert result.facts == [tuple_to_str(row) for row in system.query(query)]

    def test_each_value_is_sent_once(self):
        rows = [(Atom(f"author{i}"), Num(i)) for i in range(100)]
        line = encode(rows_payload(rows))
        assert line.count('"author7"') == 1 and line.count(",7,") == 1
        assert "[[" in line and ", " not in line   # column-major, compact

    def test_ragged_rows_are_refused(self):
        with pytest.raises(ValueError, match="ragged result: row 2 has 1 values"):
            columns_payload([(Num(1), Num(2)), (Num(3), Num(4)), (Num(5),)])

    def test_short_column_is_refused(self):
        with pytest.raises(ProtocolError, match="1 values for 2 rows"):
            decode_values({"count": 2, "columns": [[1, 2], [3]]})

    def test_notification_frames_use_the_same_columns(self):
        note = Notification(sub_id=1, seq=1, predicate="edge/2", op="insert",
                            rows=((Num(1), Atom("a")), (Num(2), Atom("b"))), txn_id=3)
        frame = over_the_wire(notification_frame(note))
        assert frame["event"] == "notification" and "rows" not in frame
        assert frame["columns"] == [[1, 2], ["a", "b"]]
        assert decode_values(frame) == [(1, "a"), (2, "b")]
