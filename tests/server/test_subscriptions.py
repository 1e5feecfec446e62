"""End-to-end tests for push subscriptions over the wire: real server,
real sockets, framed notifications interleaved with responses."""

import socket
import threading
import time

import pytest

from repro.server.client import Client, ConnectionClosed, RemoteError
from repro.server.protocol import decode_values
from repro.server.server import GlueNailServer

PATH_RULES = "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y) & edge(Y, Z)."


@pytest.fixture
def server():
    with GlueNailServer(port=0).start() as srv:
        yield srv


@pytest.fixture
def writer(server):
    with Client(port=server.port, timeout=10.0) as c:
        yield c


@pytest.fixture
def watcher(server):
    with Client(port=server.port, timeout=10.0) as c:
        yield c


def drain(sub, timeout=1.0):
    notes = []
    while True:
        note = sub.next(timeout=timeout)
        if note is None:
            return notes
        notes.append(note)


class TestSubscribeNotify:
    def test_edb_subscribe_notify_unsubscribe(self, writer, watcher):
        sub = watcher.subscribe("edge", 2)
        writer.facts("edge", [(1, 2)])
        note = sub.next(timeout=5.0)
        assert note.op == "insert"
        assert note.rows == [(1, 2)]
        assert note.predicate == "edge/2"
        assert note.txn > 0
        watcher.unsubscribe(sub)
        writer.facts("edge", [(3, 4)])
        assert sub.next(timeout=0.5) is None

    def test_snapshot_then_deltas(self, writer, watcher):
        writer.facts("edge", [(1, 2)])
        sub = watcher.subscribe("edge", 2, snapshot=True)
        assert sub.snapshot == [(1, 2)]
        writer.facts("edge", [(2, 3)])
        assert sub.next(timeout=5.0).rows == [(2, 3)]

    def test_pattern_filter_over_the_wire(self, writer, watcher):
        sub = watcher.subscribe("edge", 2, pattern=[1, None])
        writer.facts("edge", [(7, 8)])
        writer.facts("edge", [(1, 5)])
        note = sub.next(timeout=5.0)
        assert note.rows == [(1, 5)]
        assert sub.next(timeout=0.3) is None

    def test_idb_subscription_with_source(self, writer, watcher):
        writer.facts("edge", [(1, 2)])
        sub = watcher.subscribe("path", 2, source=PATH_RULES, snapshot=True)
        assert sub.kind == "idb"
        assert sub.snapshot == [(1, 2)]
        writer.facts("edge", [(2, 3)])
        rows = {row for note in drain(sub) for row in note.rows}
        assert rows == {(2, 3), (1, 3)}

    def test_subscription_stats_visible(self, writer, watcher):
        watcher.subscribe("edge", 2)
        writer.facts("edge", [(1, 2)])
        stats = writer.stats()["subscriptions"]
        assert stats["subscriptions_active"] == 1
        assert stats["notifications_pushed"] >= 1

    def test_notifications_pushed_is_server_wide(self, server, writer, watcher):
        sub = watcher.subscribe("edge", 2)
        writer.facts("edge", [(1, 2)])
        writer.facts("edge", [(2, 3)])
        assert len(drain(sub, timeout=0.5)) == 2
        with Client(port=server.port, timeout=10.0) as other:
            assert other.stats()["subscriptions"]["notifications_pushed"] == 2
        assert watcher.stats()["subscriptions"]["notifications_pushed"] == 2
        # The per-session counter still counts only this connection's pushes.
        assert watcher.stats()["counters"].get("notifications_pushed", 0) == 0

    def test_unsubscribe_unknown_id_is_remote_error(self, watcher):
        with pytest.raises(RemoteError):
            watcher.request("unsubscribe", sub=999)


class TestTransactionDelivery:
    def test_rollback_pushes_nothing(self, writer, watcher):
        sub = watcher.subscribe("edge", 2)
        writer.begin()
        writer.facts("edge", [(1, 2)])
        writer.rollback()
        assert sub.next(timeout=0.5) is None

    def test_commit_pushes_one_netted_batch(self, writer, watcher):
        sub = watcher.subscribe("edge", 2)
        writer.begin()
        writer.facts("edge", [(1, 2), (3, 4)])
        writer.commit()
        note = sub.next(timeout=5.0)
        assert note.op == "insert"
        assert sorted(note.rows) == [(1, 2), (3, 4)]
        assert sub.next(timeout=0.3) is None


class TestOrderingUnderConcurrency:
    def test_seq_monotone_with_concurrent_writers(self, server, watcher):
        sub = watcher.subscribe("edge", 2)
        per_writer = 20

        def write(base):
            with Client(port=server.port, timeout=10.0) as c:
                for n in range(per_writer):
                    c.facts("edge", [(base, n)])

        threads = [threading.Thread(target=write, args=(b,)) for b in (1, 2)]
        for t in threads:
            t.start()
        rows, seqs = set(), []
        deadline = time.monotonic() + 30
        while len(rows) < 2 * per_writer and time.monotonic() < deadline:
            note = sub.next(timeout=2.0)
            if note is None:
                continue
            seqs.append(note.seq)
            rows.update(note.rows)
        for t in threads:
            t.join()
        assert rows == {(b, n) for b in (1, 2) for n in range(per_writer)}
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))


class TestSlowConsumer:
    def test_overflow_drops_with_resync_and_never_blocks_writer(
        self, server, writer, watcher
    ):
        sub = watcher.subscribe("edge", 2, capacity=2)
        # Stall the watcher session's pusher by holding its transport
        # lock (the test runs in-process), so the bounded queue must
        # absorb -- and then drop -- the burst.
        session = server.subscriptions._subs[sub.id].owner
        start = time.monotonic()
        with session._write_lock:
            for n in range(12):
                writer.facts("edge", [(n, n)])
            writer_elapsed = time.monotonic() - start
        notes = drain(sub)
        assert writer_elapsed < 5.0  # the writer never blocked on the consumer
        resyncs = [n for n in notes if n.op == "resync"]
        assert resyncs and resyncs[-1].dropped > 0
        seqs = [n.seq for n in notes]
        assert seqs == sorted(seqs)
        stats = writer.stats()["subscriptions"]
        assert stats["dropped"] > 0


class TestDisconnectCleanup:
    def test_disconnect_removes_subscriptions(self, server, writer):
        client = Client(port=server.port, timeout=10.0)
        client.subscribe("edge", 2)
        assert server.subscriptions.subscriptions_active == 1
        client.close()
        deadline = time.monotonic() + 5
        while server.subscriptions.subscriptions_active and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.subscriptions.subscriptions_active == 0
        # Commits keep flowing with nobody subscribed.
        assert writer.facts("edge", [(1, 2)]) == 1

    def test_abrupt_socket_close_removes_subscriptions(self, server):
        client = Client(port=server.port, timeout=10.0)
        client.subscribe("edge", 2)
        # No close op: simulate a dying consumer (shutdown sends FIN even
        # while the makefile writer still references the socket).
        client._sock.shutdown(socket.SHUT_RDWR)
        client._sock.close()
        deadline = time.monotonic() + 5
        while server.subscriptions.subscriptions_active and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.subscriptions.subscriptions_active == 0


class TestClientRecv:
    def test_next_times_out_cleanly(self, watcher):
        sub = watcher.subscribe("edge", 2)
        start = time.monotonic()
        assert sub.next(timeout=0.3) is None
        assert time.monotonic() - start < 2.0
        # The connection is still usable after the timeout.
        assert watcher.ping().startswith("session-")

    def test_closed_server_raises_connection_closed(self, server):
        client = Client(port=server.port, timeout=5.0)
        client.request("close")
        with pytest.raises(ConnectionClosed):
            client.ping()


@pytest.mark.stress
class TestSubscriptionSoak:
    def test_eight_subscribers_concurrent_writer_fanout(self, server):
        """8 subscribers over mixed committed/rolled-back traffic: each
        sees exactly the committed rows, in monotone seq order."""
        per_writer = 30
        writers = 2
        expected = {(b, n) for b in range(writers) for n in range(per_writer)}
        subscribers = []
        for _ in range(8):
            client = Client(port=server.port, timeout=10.0)
            subscribers.append((client, client.subscribe("edge", 2)))

        def write(base):
            with Client(port=server.port, timeout=10.0) as c:
                for n in range(per_writer):
                    c.begin()
                    c.facts("edge", [(base, n)])
                    c.commit()
                    # Rolled-back noise must reach nobody.
                    c.begin()
                    c.facts("edge", [(base + 100, n)])
                    c.rollback()

        threads = [threading.Thread(target=write, args=(b,)) for b in range(writers)]
        for t in threads:
            t.start()
        try:
            for client, sub in subscribers:
                rows, seqs = set(), []
                deadline = time.monotonic() + 60
                while len(rows) < len(expected) and time.monotonic() < deadline:
                    note = sub.next(timeout=2.0)
                    if note is None:
                        continue
                    assert note.op == "insert"
                    seqs.append(note.seq)
                    rows.update(note.rows)
                assert rows == expected
                assert seqs == sorted(seqs)
        finally:
            for t in threads:
                t.join()
            for client, _ in subscribers:
                client.close()


WATCH_PROGRAM = """
watch edge(X, Y) call on_edge;

proc on_edge(Op, X, Y:)
edge_log(Op, X, Y) += in(Op, X, Y).
end
"""


class TestBaseProgramWatches:
    def test_watch_fires_once_per_commit_whatever_the_session_count(self):
        with GlueNailServer(port=0, program=WATCH_PROGRAM).start() as server:
            sessions = [server._new_session() for _ in range(3)]
            for session in sessions:  # each compiles the base program
                reply = session.dispatch({"op": "query", "q": "edge_log(O, X, Y)?"})
                assert reply["ok"], reply
            assert len(server.db.journal._observers) == 1
            counters = server.db.counters  # this thread's block
            before = counters.notifications_pushed
            assert sessions[0].dispatch(
                {"op": "facts", "name": "edge", "rows": [[1, 2]]}
            )["ok"]
            assert counters.notifications_pushed - before == 1
            reply = sessions[1].dispatch({"op": "query", "q": "edge_log(O, X, Y)?"})
            assert decode_values(reply) == [("insert", 1, 2)]
            for session in sessions:
                session.release()
            assert len(server.db.journal._observers) == 1
