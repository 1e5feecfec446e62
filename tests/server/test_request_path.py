"""What one request costs on the way to the engine, and what a closed
session leaves behind: EDB lookups probe instead of walking, a query is
parsed once, and a released session's memory goes back at once."""

import gc
import sys
import threading
import weakref

import pytest

from repro.core.system import GlueNailSystem
from repro.server.client import Client, RemoteError
from repro.server.protocol import decode_values
from repro.server.server import GlueNailServer
from repro.storage.relation import Relation

PATH_RULES = "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y) & edge(Y, Z)."


def lookup_costs(system, text):
    c = system.query(text).stats.counters
    return c["tuples_scanned"], c["index_builds"], c["index_lookups"]


class TestEdbPointLookups:
    def test_one_scan_one_build_then_probes(self):
        system = GlueNailSystem()
        system.facts("wrote", [(f"a{i % 7}", f"p{i}") for i in range(50)])
        assert lookup_costs(system, "wrote(A, p3)?") == (50, 0, 0)
        assert lookup_costs(system, "wrote(A, p4)?") == (0, 1, 1)
        result = system.query("wrote(A, p5)?")
        assert lookup_costs(system, "wrote(A, p5)?") == (0, 0, 1)
        assert result.to_python() == [("a5", "p5")]
        # Non-flat patterns (a repeated variable) still match row by row.
        assert system.query("wrote(X, X)?").to_python() == []

    def test_index_verdict_survives_commits_on_snapshots(self):
        """Each commit publishes a new frozen clone with no indexes; the
        scan-cost ledger it shares with its predecessors says "build" at
        once, so no generation pays the learning scan again."""
        system = GlueNailSystem()
        system.facts("wrote", [(f"a{i % 7}", f"p{i}") for i in range(50)])
        with system.snapshot():
            assert lookup_costs(system, "wrote(A, p3)?") == (50, 0, 0)
            assert lookup_costs(system, "wrote(A, p4)?") == (0, 1, 1)
        for n in range(3):
            system.facts("wrote", [("a0", f"q{n}")])
            with system.snapshot():
                assert lookup_costs(system, f"wrote(A, q{n})?") == (0, 1, 1)
                assert lookup_costs(system, "wrote(A, p9)?") == (0, 0, 1)


class TestParseOnce:
    def test_op_query_parses_the_text_once(self, monkeypatch):
        import repro.core.system as system_module
        import repro.server.server as server_module
        from repro.lang.parser import parse_query

        calls = []

        def counting(text):
            calls.append(text)
            return parse_query(text)

        monkeypatch.setattr(server_module, "parse_query", counting)
        monkeypatch.setattr(system_module, "parse_query", counting)
        with GlueNailServer(program=PATH_RULES).start() as server:
            session = server._new_session()
            session.dispatch({"op": "facts", "name": "edge", "rows": [[1, 2], [2, 3]]})
            for request in (
                {"op": "query", "q": "path(1, X)?"},
                {"op": "query", "q": "path(1, X)?", "magic": True},
                {"op": "query", "q": "edge(1, X)?"},
            ):
                calls.clear()
                response = session.dispatch(request)
                assert response["ok"] and decode_values(response)
                assert calls == [request["q"]]
            bad = session.dispatch({"op": "query", "q": "path(1, X"})
            assert not bad["ok"] and bad["kind"] == "ParseError"
            session.release()


class TestClosedSessions:
    @pytest.fixture
    def server(self):
        program = PATH_RULES + """
        sink(X) :- edge(X, _) & !path(X, 0).
        proc next_of(X:Y)
          return(X:Y) := in(X) & edge(X, Y).
        end
        """
        with GlueNailServer(program=program).start() as server:
            first = server._new_session()
            first.dispatch(
                {"op": "facts", "name": "edge",
                 "rows": [[i, i + 1] for i in range(40)]}
            )
            first.release()
            yield server

    @staticmethod
    def cycle(server):
        session = server._new_session()
        for q in ("path(0, X)?", "sink(X)?"):  # broadcasts, a rowset, a probe table
            assert session.dispatch({"op": "query", "q": q})["ok"]
        magic = session.dispatch({"op": "query", "q": "path(3, X)?", "magic": True})
        assert magic["ok"]
        call = session.dispatch({"op": "call", "name": "next_of", "inputs": [[3]]})
        assert decode_values(call) == [(3, 4)]
        session.release()

    def test_cycles_leave_context_and_collector_flat(self, server, monkeypatch):
        def edb_tables():
            return {
                (key, shape): entry
                for key, relation in server.db.items()
                for shape, entry in relation.kernel_tables.items()
            }

        self.cycle(server)
        baseline = edb_tables()
        assert baseline
        created = []
        init = Relation.__init__

        def recording_init(relation, *args, **kwargs):
            init(relation, *args, **kwargs)
            created.append(weakref.ref(relation))

        monkeypatch.setattr(Relation, "__init__", recording_init)
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(5):
                self.cycle(server)
            # Every IDB, magic and frame relation the sessions made is gone
            # by reference counting, and its kernel tables with it ...
            assert created and all(ref() is None for ref in created)
            gc.collect()
            unreachable = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        # ... while the EDB keeps the very tables the first cycle built ...
        after = edb_tables()
        assert after.keys() == baseline.keys()
        assert all(after[key] is entry for key, entry in baseline.items())
        # ... and no session, system, compiler, engine or magic database
        # waits in a reference cycle for the cycle collector.
        cyclic = sorted({
            type(obj).__qualname__ for obj in unreachable
            if type(obj).__module__.startswith("repro.")
        })
        assert cyclic == []

    def test_release_keeps_the_shared_store_open(self, tmp_path):
        with GlueNailServer(db_dir=str(tmp_path), program=PATH_RULES).start() as server:
            session = server._new_session()
            session.dispatch({"op": "facts", "name": "edge", "rows": [[1, 2]]})
            session.release()
            assert server.store is not None and server.store.wal is not None
            again = server._new_session()
            assert again.dispatch({"op": "facts", "name": "edge", "rows": [[2, 3]]})["ok"]
            reply = again.dispatch({"op": "query", "q": "path(1, X)?"})
            assert sorted(decode_values(reply)) == [(1, 2), (1, 3)]
            again.release()


LOCAL_PROBE = """
proc pick(:X, Y, Z)
rels t(X, Y);
  t(X, Y) := big(X, Y).
  return(:X, Y, Z) := small(X) & t(X, Y) & label(Y, Z).
end
"""


@pytest.mark.stress
def test_concurrent_calls_with_local_relations_get_no_error_reply():
    """Six clients call a read-only procedure whose frame probes a local
    relation, all at once: every call builds and drops a kernel table on
    its own frame while the others do the same, and no reply is an error."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with GlueNailServer(port=0, program=LOCAL_PROBE).start() as server:
            with Client(port=server.port) as loader:
                loader.facts("big", [(i % 5, i) for i in range(40)])
                loader.facts("small", [(1,), (3,)])
                loader.facts("label", [(i, f"l{i}") for i in range(40)])
            errors, replies = [], [0] * 6

            def call_loop(n):
                with Client(port=server.port, timeout=30) as client:
                    for _ in range(300):
                        try:
                            rows = client.call("pick")
                        except RemoteError as exc:
                            errors.append(str(exc))
                            continue
                        assert len(rows) == 16
                        replies[n] += 1

            threads = [threading.Thread(target=call_loop, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(switch)
    assert errors == []
    assert replies == [300] * 6
