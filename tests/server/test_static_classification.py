"""The compiled program decides which requests write.

A ``call`` or a query whose fallback procedure updates nothing runs on a
pinned snapshot and never waits behind another session's transaction; a
writing one takes the write window.  Only write windows touch the catalog
or the journal."""

import sys
import threading

import pytest

from repro.server.client import Client
from repro.server.protocol import decode_values
from repro.server.server import GlueNailServer

PROGRAM = """
edb e(X);

proc report(:X)
  return(:X) := e(X).
end

proc bump(:X)
  return(:X) := e(X) & ++seen(X).
end

proc peek(X:)
  return(X:) := in(X) & ghost(X).
end
"""


def count_write_acquires(server):
    counts = {"write": 0}
    acquire_write = server.lock.acquire_write

    def counting():
        counts["write"] += 1
        acquire_write()

    server.lock.acquire_write = counting
    return counts


def test_an_open_transaction_blocks_no_read_only_call():
    with GlueNailServer(port=0, program=PROGRAM).start() as server:
        with Client(port=server.port) as writer:
            writer.facts("e", [[1], [2]])
            writer.begin()
            writer.facts("e", [[3]])
            replies, errors = [], []

            def read():
                try:
                    with Client(port=server.port, timeout=5) as reader:
                        replies.append(sorted(reader.call("report")))
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            writer.commit()
    assert errors == []
    assert replies == [[(1,), (2,)]] * 4


PAIRS = """
proc report_pairs(:I, J)
  return(:I, J) := pair(I, J).
end

proc copy_pairs(:)
  pair(I, J) += staged(I, J).
  return(:) := true.
end
"""


@pytest.mark.stress
def test_read_only_calls_beside_a_writer_see_only_whole_pairs():
    """Four reader threads call a read-only procedure while one writer
    commits pairs, by transaction and by a writing call: every read holds
    whole pairs only."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with GlueNailServer(port=0, program=PAIRS).start() as server:
            stop = threading.Event()
            failures, reads = [], [0] * 4

            def read_loop(n):
                try:
                    with Client(port=server.port, timeout=30) as reader:
                        while not stop.is_set():
                            rows = reader.call("report_pairs")
                            if len(rows) % 2:
                                failures.append(f"torn read: {len(rows)} rows")
                                return
                            reads[n] += 1
                except Exception as exc:  # noqa: BLE001 - reported below
                    failures.append(f"reader died: {exc!r}")

            with Client(port=server.port) as writer:
                threads = [threading.Thread(target=read_loop, args=(n,)) for n in range(4)]
                for thread in threads:
                    thread.start()
                try:
                    for i in range(20):
                        writer.begin()
                        writer.facts("pair", [(i, 0)])
                        writer.facts("pair", [(i, 1)])
                        writer.commit()
                        writer.facts("staged", [(100 + i, 0), (100 + i, 1)])
                        writer.call("copy_pairs")
                finally:
                    stop.set()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert len(writer.call("report_pairs")) == 80
    finally:
        sys.setswitchinterval(switch)
    assert failures == []
    assert all(reads)


class TestBrackets:
    def test_query_takes_the_write_window_only_for_a_writing_fallback(self):
        with GlueNailServer(port=0, program=PROGRAM) as server:
            session = server._new_session()
            session.dispatch({"op": "facts", "name": "e", "rows": [[1]]})
            acquires = count_write_acquires(server)
            reply = session.dispatch({"op": "query", "q": "bump(X)?"})
            assert reply["resolution"] == "procedure"
            assert decode_values(reply) == [(1,)]
            assert acquires["write"] == 1

            acquires["write"] = 0
            version, keys = server.db.version, server.db.sorted_keys()
            reply = session.dispatch({"op": "query", "q": "peek(1)?"})
            assert reply["resolution"] == "procedure"
            assert decode_values(reply) == []
            assert acquires["write"] == 0
            # A pinned read of the undeclared ghost/1 declares nothing.
            assert (server.db.version, server.db.sorted_keys()) == (version, keys)

    def test_repl_analyze_of_a_writing_fallback_takes_the_write_window(self):
        with GlueNailServer(port=0, program=PROGRAM) as server:
            session = server._new_session()
            session.dispatch({"op": "facts", "name": "e", "rows": [[1]]})
            reply = session.dispatch({"op": "repl", "line": ".analyze bump(X)?"})
            assert reply["ok"], reply
            assert "resolution: procedure" in reply["out"]
            assert len(server.db.get("seen", 1)) == 1

    def test_a_writer_forced_onto_a_snapshot_fails_and_leaves_nothing(self):
        with GlueNailServer(port=0, program=PROGRAM) as server:
            session = server._new_session()
            session.dispatch({"op": "facts", "name": "e", "rows": [[1], [2]]})
            session.system.compile().find_proc("bump", 1).writes = False
            reply = session.dispatch({"op": "call", "name": "bump"})
            assert not reply["ok"]
            assert "frozen snapshot" in reply["error"]
            assert server.db.get("seen", 1) is None


def test_every_journal_record_is_inside_a_write_window(tmp_path):
    with GlueNailServer(db_dir=str(tmp_path), port=0, program=PROGRAM) as server:
        manager = server.db.journal
        record = manager._record
        seen = {"inside": 0, "outside": []}

        def checked(op, undo=None):
            if server.mvcc_store._window_open:
                seen["inside"] += 1
            else:
                seen["outside"].append(op)
            record(op, undo)

        manager._record = checked
        a, b = server._new_session(), server._new_session()
        requests = [
            (a, {"op": "facts", "name": "e", "rows": [[1], [2]]}),
            (b, {"op": "query", "q": "e(X)?"}),
            (b, {"op": "query", "q": "peek(1)?"}),
            (b, {"op": "call", "name": "report"}),
            (a, {"op": "call", "name": "bump"}),
            (a, {"op": "load", "source": "edb extra(X);"}),
            (a, {"op": "begin"}),
            (b, {"op": "call", "name": "report"}),
            (a, {"op": "facts", "name": "extra", "rows": [[5]]}),
            (a, {"op": "query", "q": "bump(X)?"}),
            (a, {"op": "commit"}),
            (b, {"op": "begin"}),
            (b, {"op": "load", "source": "edb scratch(X);"}),
            (b, {"op": "rollback"}),
        ]
        for session, request in requests:
            assert session.dispatch(request)["ok"], request
        c = server._new_session()
        assert c.dispatch({"op": "call", "name": "report"})["ok"]
        for session in (a, b, c):
            session.release()
    assert seen["outside"] == []
    assert seen["inside"] > 0
