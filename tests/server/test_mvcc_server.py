"""Server-side MVCC: snapshot routing of read requests, the
classify-then-pin upgrade race, stats surfacing, and notification
version stamping.  Uses in-process sessions (``server._new_session()``)
so the races are deterministic, plus real sockets where the wire format
matters."""

import pytest

from repro.server.client import Client
from repro.server.protocol import decode_values
from repro.server.server import GlueNailServer

PROC_PROGRAM = """
module m;
export q(X:);
proc q(X:)
  return(X:) := in(X) & aux(X).
end
end
"""


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

    def test_lock_mode_has_no_version_store(self):
        with GlueNailServer(port=0, mvcc=False).start() as srv:
            assert srv.mvcc_store is None
            session = srv._new_session()
            session.dispatch({"op": "facts", "name": "edge", "rows": [[1, 2]]})
            reply = session.dispatch({"op": "rows", "name": "edge", "arity": 2})
            assert decode_values(reply) == [(1, 2)]
            stats = session.dispatch({"op": "stats"})
            assert "mvcc" not in stats
            assert stats["counters"].get("snapshot_pins", 0) == 0


class TestClassifyUpgradeRace:
    """Regression: a query classified read-only against the live catalog
    can be flipped by a concurrent drop onto the mutating
    procedure-fallback path.  The re-validation under the pin must route
    it back through the write lock -- never run it pinned and unlocked."""

    def race_drop_into_gap(self, server, session):
        """Install a classify hook that drops ``q/1`` (and publishes) in
        the classify->pin window, then starts counting write-lock
        acquisitions."""
        state = {"write_acquires": 0, "fired": False}

        def hook(_session):
            if state["fired"]:
                return
            state["fired"] = True
            with server.write_window():
                server.db.drop("q", 1)
            original = server.lock.acquire_write

            def counting():
                state["write_acquires"] += 1
                original()

            server.lock.acquire_write = counting

        server._classify_hook = hook
        return state

    def test_flipped_verdict_reruns_under_the_write_lock(self, server):
        session = server._new_session()
        session.dispatch({"op": "facts", "name": "q", "rows": [[1], [7]]})
        session.dispatch({"op": "facts", "name": "aux", "rows": [[1], [2]]})
        session.dispatch({"op": "load", "source": PROC_PROGRAM})
        state = self.race_drop_into_gap(server, session)

        reply = session.dispatch({"op": "query", "q": "q(1)?"})

        assert state["fired"], "the classify hook never ran"
        assert reply["resolution"] == "procedure"
        assert decode_values(reply) == [(1,)]
        assert state["write_acquires"] >= 1, (
            "a mutating fallback ran outside the write lock"
        )

    def test_flip_to_nothing_resolves_none_not_crash(self, server):
        # Same race, but with no procedure to fall back to: the re-run
        # under the write window answers "none" instead of crashing or
        # serving the dropped relation.
        session = server._new_session()
        session.dispatch({"op": "facts", "name": "q", "rows": [[1]]})
        state = self.race_drop_into_gap(server, session)
        reply = session.dispatch({"op": "query", "q": "q(1)?"})
        assert state["fired"]
        assert reply["resolution"] == "none"
        assert decode_values(reply) == []


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
