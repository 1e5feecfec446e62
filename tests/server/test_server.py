"""End-to-end tests for the concurrent query server: a live server on an
ephemeral port, real sockets, real threads.

The ``stress`` marker selects the multi-threaded smoke test (its own CI
job); everything else here is fast enough for tier 1.
"""

import json
import os
import socket
import threading
import time
from collections import Counter

import pytest

from repro.server.client import Client, RemoteError
from repro.server.server import GlueNailServer

PATH_RULES = "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y) & edge(Y, Z)."


@pytest.fixture
def server():
    with GlueNailServer(port=0).start() as srv:
        yield srv


@pytest.fixture
def client(server):
    with Client(port=server.port) as c:
        yield c


class TestBasicOps:
    def test_ping_names_the_session(self, client):
        assert client.ping().startswith("session-")

    def test_facts_query_round_trip(self, client):
        assert client.facts("edge", [(1, 2), (2, 3)]) == 2
        client.load(PATH_RULES)
        result = client.query("path(1, X)?")
        assert sorted(result.values) == [(1, 2), (1, 3)]
        assert sorted(result.facts) == ["(1, 2)", "(1, 3)"]
        assert result.resolution == "nail"
        assert result.stats["rows"] == 2

    def test_rows_and_rels(self, client):
        client.facts("edge", [(1, 2)])
        assert client.rows("edge", 2).values == [(1, 2)]
        assert {"name": "edge", "arity": 2, "rows": 1} in client.rels()

    def test_facts_batch_is_all_or_nothing(self, client):
        with pytest.raises(RemoteError):
            client.request("facts", name="p", rows=[[1], [None]])
        assert client.rows("p", 1).values == []
        assert client.facts("p", [(1,), (2,)]) == 2

    def test_error_comes_back_as_remote_error(self, client):
        with pytest.raises(RemoteError):
            client.query("edge(")  # parse error crosses the wire intact

    def test_unknown_op_is_protocol_error(self, client):
        with pytest.raises(RemoteError) as info:
            client.request("frobnicate")
        assert info.value.kind == "protocol"

    MALFORMED = [
        ({"op": "rows", "name": "edge", "arity": "x"}, "arity"),
        ({"op": "rows", "name": "edge", "arity": None}, "arity"),
        ({"op": "subscribe", "name": "edge", "arity": "x"}, "arity"),
        ({"op": "subscribe", "name": "edge", "arity": None}, "arity"),
        ({"op": "facts", "name": "edge", "rows": 5}, "rows"),
        ({"op": "call", "name": "p", "inputs": 3}, "inputs"),
        ({"op": "unsubscribe", "sub": "a"}, "sub"),
        ({"op": "query", "q": 5}, "q"),
        ({"op": "load", "source": 7}, "source"),
        ({"op": "repl", "line": 5}, "line"),
        ({"op": "query", "q": "edge(X, Y)?", "magic": "no"}, "magic"),
        ({"op": "subscribe", "name": "edge", "arity": 2, "snapshot": "no"}, "snapshot"),
        ({"op": "trace", "on": "no"}, "on"),
    ]

    @pytest.mark.parametrize(
        "request_, field", MALFORMED,
        ids=[f"{r['op']}-{field}={r[field]!r}" for r, field in MALFORMED],
    )
    def test_malformed_field_is_protocol_error(self, server, request_, field):
        reply = server._new_session().dispatch(dict(request_, id=1))
        assert reply["ok"] is False and reply["id"] == 1
        assert reply["kind"] == "protocol"
        assert repr(field) in reply["error"]

    def test_base_program_preloaded(self):
        with GlueNailServer(port=0, program=PATH_RULES).start() as srv:
            with Client(port=srv.port) as c:
                c.facts("edge", [(1, 2), (2, 3)])
                assert len(c.query("path(1, X)?")) == 2

    def test_large_reply_carries_each_value_once(self, server, client):
        client.facts("big", [(f"author{i % 997}", i, f"p{i}") for i in range(20_000)])
        lines = []
        read_line = client._read_line

        def recording(timeout):
            line = read_line(timeout)
            lines.append(line)
            return line

        client._read_line = recording
        result = client.query("big(A, N, P)?")
        session = server._new_session()
        try:
            expected = session.system.query("big(A, N, P)?").to_python()
        finally:
            session.release()
        assert len(expected) == 20_000 and result.values == expected
        once = sum(len(json.dumps(v)) + 1 for row in expected for v in row)
        assert once <= len(lines[-1]) <= once + 4096

    def test_nullary_and_empty_answers_cross_the_wire(self, client):
        client.fact("flag")
        client.facts("edge", [(1, 2)])
        assert client.query("flag()?") == [()]
        assert client.query("nope()?") == []
        empty = client.query("edge(5, X)?")
        assert empty == [] and empty.facts == [] and empty.resolution == "edb"

    def test_stats_parallel_block_is_the_serial_constant(self, client):
        # bench/workloads.py reads stats()["parallel"]["workers"]; the block
        # stays byte-for-byte what a serial server has always reported.
        block = client.stats()["parallel"]
        assert json.dumps(block) == '{"mode": "serial", "workers": 1}'

    def test_accepted_sockets_disable_nagle(self, monkeypatch):
        # A notification frame written right behind a reply must not wait
        # for the client's delayed ACK.
        from repro.server.server import _Handler

        seen = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            seen.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        with GlueNailServer(port=0).start() as srv:
            with Client(port=srv.port) as c:
                c.ping()
        assert seen and all(seen)

    def test_trace_round_trip(self, client):
        client.facts("edge", [(1, 2)])
        client.trace(True)
        result = client.query("edge(1, X)?")
        assert result.trace, "tracing on: events should ride along"
        client.trace(False)
        assert client.query("edge(1, X)?").trace == []


class TestSessionIsolation:
    def test_rules_are_private_edb_is_shared(self, server):
        with Client(port=server.port) as writer, Client(port=server.port) as reader:
            writer.facts("edge", [(1, 2), (2, 3)])
            writer.load(PATH_RULES)
            # The reader sees the shared facts...
            assert reader.rows("edge", 2).values == [(1, 2), (2, 3)]
            # ...but not the writer's private rules: for the reader the
            # predicate simply does not resolve.
            unresolved = reader.query("path(1, X)?")
            assert unresolved.values == [] and unresolved.resolution == "none"
            assert sorted(writer.query("path(1, X)?").values) == [(1, 2), (1, 3)]

    def test_per_session_stats_are_isolated(self, server):
        with Client(port=server.port) as a, Client(port=server.port) as b:
            a.facts("edge", [(i, i + 1) for i in range(50)])
            a.query("edge(1, X)?")
            idle = b.stats()["counters"]
            busy = a.stats()["counters"]
            assert busy.get("inserts", 0) == 50
            assert idle.get("inserts", 0) == 0
            # The server-wide aggregate still sees everything.
            assert a.stats()["server_counters"].get("inserts", 0) == 50


class TestCounterBlocks:
    def test_closed_sessions_fold_their_counter_blocks(self, server):
        """Each connection thread counts into its own block; closing the
        connection folds that block into one retired total, so the blocks
        stay bounded by the live threads while the server-wide aggregate
        still sums every connection's work."""
        counters = server.db.counters
        before = Counter(counters.aggregate().snapshot())
        idle_threads = threading.active_count()
        connections = 12
        work = Counter()
        for i in range(connections):
            with Client(port=server.port) as c:
                c.facts("edge", [(i, j) for j in range(5)])
                c.query("edge(X, Y)?")
                work.update(c.stats()["counters"])
            deadline = time.monotonic() + 10
            while threading.active_count() > idle_threads and time.monotonic() < deadline:
                time.sleep(0.005)  # the handler thread releases its session
        assert len(counters._blocks) <= threading.active_count() + 1
        # A stats request pins its snapshot after reading its own counters.
        work["snapshot_pins"] += connections
        done = Counter(counters.aggregate().snapshot())
        done.subtract(before)
        assert +done == +work
        assert done["inserts"] == 5 * connections


class TestTransactionsOverTheWire:
    def test_commit_publishes_rollback_discards(self, server):
        with Client(port=server.port) as a, Client(port=server.port) as b:
            a.begin()
            a.facts("edge", [(1, 2)])
            a.commit()
            assert b.rows("edge", 2).values == [(1, 2)]
            a.begin()
            a.facts("edge", [(9, 9)])
            a.rollback()
            assert b.rows("edge", 2).values == [(1, 2)]

    def test_writer_transaction_does_not_block_snapshot_readers(self, server):
        # MVCC (the default): a reader arriving mid-transaction pins the
        # last published snapshot and answers immediately -- it neither
        # blocks behind the writer nor sees uncommitted rows.
        with Client(port=server.port) as writer:
            writer.facts("edge", [(1, 2)])
            writer.begin()
            writer.facts("edge", [(2, 3)])
            seen = []
            done = threading.Event()

            def read():
                with Client(port=server.port) as reader:
                    seen.extend(reader.rows("edge", 2).values)
                done.set()

            thread = threading.Thread(target=read)
            thread.start()
            assert done.wait(5), "snapshot reader must not block behind the txn"
            thread.join(timeout=5)
            assert seen == [(1, 2)]  # the published version; (2, 3) invisible
            writer.commit()
            with Client(port=server.port) as reader:
                assert sorted(reader.rows("edge", 2).values) == [(1, 2), (2, 3)]

    def test_disconnect_rolls_back(self, server):
        abandoned = Client(port=server.port)
        abandoned.facts("edge", [(1, 2)])
        abandoned.begin()
        abandoned.facts("edge", [(9, 9)])
        # Drop the connection mid-transaction.  shutdown() sends the FIN
        # immediately (close() alone defers it while makefile refs live).
        abandoned._sock.shutdown(socket.SHUT_RDWR)
        abandoned._sock.close()
        with Client(port=server.port) as fresh:
            assert fresh.rows("edge", 2).values == [(1, 2)]

    def test_double_begin_is_an_error(self, client):
        client.begin()
        with pytest.raises(RemoteError):
            client.begin()
        client.rollback()

    def test_commit_without_begin_is_an_error(self, client):
        with pytest.raises(RemoteError):
            client.commit()


class TestReplProxy:
    def test_repl_lines_round_trip(self, client):
        assert client.repl("edge(1, 2).") == "ok\n"
        out = client.repl("edge(1, X)?")
        assert "(1, 2)" in out
        assert "edge/2" in client.repl(".rels")

    def test_repl_transactions(self, client):
        client.repl("edge(1, 2).")
        assert "transaction open" in client.repl(".begin")
        client.repl("edge(9, 9).")
        assert "transaction rolled back" in client.repl(".rollback")
        assert "(9, 9)" not in client.repl(".dump edge/2")

    def test_repl_rule_definition(self, client):
        client.repl("edge(1, 2).")
        client.repl("edge(2, 3).")
        client.repl("path(X, Y) :- edge(X, Y).")
        client.repl("path(X, Z) :- path(X, Y) & edge(Y, Z).")
        out = client.repl("path(1, X)?")
        assert "(1, 2)" in out and "(1, 3)" in out


class TestDurableServer:
    def test_commits_survive_server_restart(self, tmp_path):
        with GlueNailServer(db_dir=str(tmp_path), port=0).start() as srv:
            with Client(port=srv.port) as c:
                c.facts("edge", [(1, 2), (2, 3)])
                assert c.stats()["wal_commits"] >= 1
                assert c.checkpoint() == 2
                c.facts("edge", [(3, 4)])
        with GlueNailServer(db_dir=str(tmp_path), port=0).start() as srv:
            with Client(port=srv.port) as c:
                assert len(c.rows("edge", 2)) == 3


    def test_failed_commit_frees_the_writer_and_publishes_nothing(
        self, tmp_path, monkeypatch
    ):
        with GlueNailServer(db_dir=str(tmp_path), port=0).start() as srv:
            with Client(port=srv.port) as a, Client(port=srv.port) as b:
                a.facts("edge", [(1, 2)])
                a.begin()
                a.facts("edge", [(9, 9)])
                real_fsync = os.fsync

                def failing_fsync(fd):
                    monkeypatch.setattr(os, "fsync", real_fsync)
                    raise OSError("injected fsync failure")

                monkeypatch.setattr(os, "fsync", failing_fsync)
                with pytest.raises(RemoteError, match="injected"):
                    a.commit()
                assert b.rows("edge", 2).values == [(1, 2)]
                b.begin()
                b.facts("edge", [(2, 3)])
                b.commit()
                assert sorted(a.rows("edge", 2).values) == [(1, 2), (2, 3)]
        with GlueNailServer(db_dir=str(tmp_path), port=0).start() as srv:
            with Client(port=srv.port) as c:
                assert sorted(c.rows("edge", 2).values) == [(1, 2), (2, 3)]

    def test_one_committer_at_a_time(self, tmp_path, monkeypatch):
        """The write window admits one writer, so WAL appends never
        overlap and every commit pays exactly one fsync."""
        from repro.txn.wal import WriteAheadLog

        guard = threading.Lock()
        active, peak = [0], [0]
        real_append = WriteAheadLog.append_commit

        def counting_append(wal, ops):
            with guard:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            try:
                return real_append(wal, ops)
            finally:
                with guard:
                    active[0] -= 1

        monkeypatch.setattr(WriteAheadLog, "append_commit", counting_append)
        with GlueNailServer(db_dir=str(tmp_path), port=0).start() as srv:
            srv.db.declare("w", 2)  # no thread autocommits a declare later
            wal = srv.store.wal
            commits, fsyncs = wal.commits, wal.fsyncs
            errors = []

            def writer(t):
                try:
                    with Client(port=srv.port) as c:
                        for i in range(5):
                            c.facts("w", [(t, i)])
                            c.begin()
                            c.facts("w", [(t, i + 100)])
                            c.commit()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert wal.commits - commits == 40
            assert wal.fsyncs - fsyncs == wal.commits - commits
            assert peak[0] == 1


@pytest.mark.stress
class TestStress:
    def test_concurrent_readers_see_no_torn_writes(self, server):
        """One writer commits pairs ("pair", i, 0)/("pair", i, 1) per write
        op; N readers poll.  Every snapshot must hold an even row count
        (both halves of each pair) and per-session stats must stay intact."""
        rounds = 40
        readers = 4
        stop = threading.Event()
        failures = []

        def read_loop():
            try:
                with Client(port=server.port, timeout=30) as c:
                    snapshots = 0
                    while not stop.is_set():
                        rows = c.rows("pair", 2).values
                        if len(rows) % 2 != 0:
                            failures.append(f"torn read: {len(rows)} rows")
                            return
                        snapshots += 1
                    # This session only ever read: its write counters are 0.
                    counters = c.stats()["counters"]
                    if counters.get("inserts", 0) != 0:
                        failures.append("reader session counted inserts")
                    if snapshots == 0:
                        failures.append("reader made no progress")
            except Exception as exc:  # noqa: BLE001 - report, don't hang
                failures.append(f"reader died: {exc!r}")

        with Client(port=server.port) as writer:
            writer.facts("pair", [(0, 0), (0, 1)])
            threads = [threading.Thread(target=read_loop) for _ in range(readers)]
            for t in threads:
                t.start()
            try:
                for i in range(1, rounds):
                    writer.facts("pair", [(i, 0), (i, 1)])
            finally:
                stop.set()
            for t in threads:
                t.join(timeout=30)
            assert not failures, failures
            assert len(writer.rows("pair", 2)) == 2 * rounds
            assert writer.stats()["counters"]["inserts"] == 2 * rounds
