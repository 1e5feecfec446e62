"""Server-side MVCC: snapshot routing of read requests, stats surfacing,
and notification version stamping.  Uses in-process sessions
(``server._new_session()``) so schedules are deterministic, plus real
sockets where the wire format matters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.client import Client
from repro.server.protocol import decode_values
from repro.server.server import GlueNailServer


@pytest.fixture
def server():
    with GlueNailServer(port=0).start() as srv:
        yield srv


class TestSnapshotRouting:
    def test_reads_pin_instead_of_locking(self, server):
        session = server._new_session()
        session.dispatch({"op": "facts", "name": "edge", "rows": [[1, 2]]})
        before = server.mvcc_store.stats()["publishes"]
        reply = session.dispatch({"op": "rows", "name": "edge", "arity": 2})
        assert decode_values(reply) == [(1, 2)]
        stats = session.dispatch({"op": "stats"})
        assert stats["counters"]["snapshot_pins"] >= 1
        assert stats["mvcc"]["publishes"] >= before
        assert stats["mvcc"]["window_open"] is False

    def test_durable_server_reports_fsyncs(self, tmp_path):
        with GlueNailServer(db_dir=str(tmp_path), port=0).start() as srv:
            session = srv._new_session()
            session.dispatch({"op": "facts", "name": "edge", "rows": [[1, 2]]})
            stats = session.dispatch({"op": "stats"})
            assert stats["wal_commits"] >= 1
            assert stats["wal_fsyncs"] >= 1

    def test_query_read_is_counted_as_snapshot_read(self, server):
        session = server._new_session()
        session.dispatch({"op": "facts", "name": "edge", "rows": [[1, 2]]})
        reply = session.dispatch({"op": "query", "q": "edge(1, X)?"})
        assert decode_values(reply) == [(1, 2)]
        counters = session.dispatch({"op": "stats"})["counters"]
        assert counters["snapshot_reads"] >= 1


EDGES = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=3)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["begin", "commit", "rollback"]), st.none()),
        st.tuples(st.just("facts"), EDGES),
        st.tuples(st.sampled_from(["rows", "query"]), st.integers(0, 1)),
    ),
    max_size=30,
)
READS = {
    "rows": {"op": "rows", "name": "edge", "arity": 2},
    "query": {"op": "query", "q": "edge(X, Y)?"},
}


class TestReadersSeeOnlyCommittedStates:
    """A seeded in-process schedule: one writer session and two reader
    sessions interleave requests on one thread.  Every read must return
    exactly the last committed state, without ever taking the read lock --
    including reads inside the server's very first write window."""

    @given(first=EDGES, steps=STEPS)
    @settings(deadline=None, max_examples=25, derandomize=True)
    def test_every_read_is_the_last_committed_state(self, first, steps):
        with GlueNailServer(port=0) as server:
            writer = server._new_session()
            readers = [server._new_session(), server._new_session()]

            def no_read_lock():
                raise AssertionError("a read took the read lock")

            acquire_write = server.lock.acquire_write

            def no_wait_behind_the_writer():
                # On one thread this would deadlock instead of failing.
                assert not writer._holds_write, "a read queued behind the writer"
                acquire_write()

            server.lock.acquire_read = no_read_lock
            server.lock.acquire_write = no_wait_behind_the_writer

            committed, pending, in_txn = set(), set(), False
            schedule = [("begin", None), ("facts", first), ("rows", 0), ("query", 1)]
            for op, arg in schedule + steps:
                if op == "begin" and not in_txn:
                    assert writer.dispatch({"op": "begin"})["ok"]
                    in_txn = True
                elif op in ("commit", "rollback") and in_txn:
                    assert writer.dispatch({"op": op})["ok"]
                    if op == "commit":
                        committed |= pending
                    pending, in_txn = set(), False
                elif op == "facts":
                    reply = writer.dispatch(
                        {"op": "facts", "name": "edge", "rows": [list(r) for r in arg]}
                    )
                    assert reply["ok"], reply
                    (pending if in_txn else committed).update(arg)
                elif op in READS:
                    reply = readers[arg].dispatch(dict(READS[op]))
                    assert reply["ok"], reply
                    assert set(decode_values(reply)) == committed


class TestNotificationVersions:
    def test_pushed_frames_carry_the_published_version(self, server):
        with Client(port=server.port) as subscriber, \
                Client(port=server.port) as writer:
            sub = subscriber.subscribe("edge", 2)
            writer.facts("edge", [(1, 2)])
            note = sub.next(timeout=5)
            assert note is not None and note.op == "insert"
            assert note.version > 0
            assert note.version <= server.mvcc_store.pin().db_version
