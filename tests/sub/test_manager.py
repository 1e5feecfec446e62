"""Tests for the SubscriptionManager: transaction-consistent delivery of
EDB and IDB deltas, pattern filters, resync fallbacks and active rules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import GlueNailSystem
from repro.errors import GlueRuntimeError
from repro.storage import relation as relation_module
from repro.sub import manager as sub_manager
from repro.sub.queue import OP_DELETE, OP_INSERT, OP_RESYNC
from repro.terms.term import mk

PATH_RULES = "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y) & edge(Y, Z)."
EDGE = st.tuples(st.integers(0, 9), st.integers(0, 9))


def lift(*values):
    return tuple(mk(v) for v in values)


@pytest.fixture
def system():
    return GlueNailSystem()


def collect(notes):
    """A callback that appends (op, rows, txn) triples to ``notes``."""

    def callback(note):
        notes.append((note.op, tuple(note.rows), note.txn_id))

    return callback


class TestEdbDelivery:
    def test_insert_notifies_after_autocommit(self, system):
        notes = []
        system.subscribe("edge", 2, callback=collect(notes))
        system.facts("edge", [(1, 2)])
        assert len(notes) == 1
        op, rows, txn = notes[0]
        assert op == OP_INSERT
        assert rows == (lift(1, 2),)
        assert txn > 0

    def test_delete_notifies(self, system):
        system.facts("edge", [(1, 2)])
        notes = []
        system.subscribe("edge", 2, callback=collect(notes))
        system.db.relation(mk("edge"), 2).delete(lift(1, 2))
        assert [(op, rows) for op, rows, _ in notes] == [
            (OP_DELETE, (lift(1, 2),))
        ]

    def test_transaction_batches_and_nets(self, system):
        notes = []
        system.subscribe("edge", 2, callback=collect(notes))
        system.begin()
        system.facts("edge", [(1, 2), (3, 4)])
        # Inserted and deleted inside the same transaction: nets to zero.
        system.db.relation(mk("edge"), 2).delete(lift(3, 4))
        system.commit()
        assert len(notes) == 1
        op, rows, txn = notes[0]
        assert op == OP_INSERT and rows == (lift(1, 2),)

    def test_rollback_emits_nothing(self, system):
        notes = []
        system.subscribe("edge", 2, callback=collect(notes))
        system.begin()
        system.facts("edge", [(1, 2)])
        system.rollback()
        assert notes == []

    def test_txn_ids_are_monotone(self, system):
        notes = []
        system.subscribe("edge", 2, callback=collect(notes))
        for n in range(3):
            system.facts("edge", [(n, n)])
        txns = [txn for _, _, txn in notes]
        assert txns == sorted(txns) and len(set(txns)) == 3

    def test_pattern_filters_rows(self, system):
        notes = []
        system.subscribe("edge", 2, pattern=(1, None), callback=collect(notes))
        system.facts("edge", [(1, 2), (7, 8)])
        delivered = [rows for _, rows, _ in notes]
        assert delivered == [(lift(1, 2),)]

    def test_queue_mode_buffers_until_polled(self, system):
        sub = system.subscribe("edge", 2)
        system.facts("edge", [(1, 2)])
        system.facts("edge", [(3, 4)])
        seqs = [n.seq for n in sub.drain()]
        assert seqs == [1, 2]
        assert sub.poll() is None

    def test_unsubscribe_stops_delivery(self, system):
        notes = []
        sub = system.subscribe("edge", 2, callback=collect(notes))
        system.facts("edge", [(1, 2)])
        system.subscriptions.unsubscribe(sub)
        system.facts("edge", [(3, 4)])
        assert len(notes) == 1

    def test_unsubscribe_owner_clears_everything(self, system):
        owner = object()
        system.subscribe("edge", 2, owner=owner)
        system.subscribe("edge", 3, owner=owner)
        kept = system.subscribe("edge", 2)
        assert system.subscriptions.unsubscribe_owner(owner) == 2
        assert system.subscriptions.subscriptions_active == 1
        assert system.subscriptions._subs[kept.id] is kept

    def test_snapshot_is_captured_at_registration(self, system):
        system.facts("edge", [(1, 2), (3, 4)])
        sub = system.subscribe("edge", 2, snapshot=True)
        assert set(sub.snapshot_rows) == {lift(1, 2), lift(3, 4)}


class TestIdbDelivery:
    def test_repair_insert_deltas_are_exact(self, system):
        system.load(PATH_RULES)
        system.facts("edge", [(1, 2)])
        system.query("path(1, X)?")  # materialize the IDB
        notes = []
        system.subscribe("path", 2, callback=collect(notes))
        system.facts("edge", [(2, 3)])
        assert len(notes) == 1
        op, rows, _ = notes[0]
        assert op == OP_INSERT
        assert set(rows) == {lift(2, 3), lift(1, 3)}

    def test_autocommitted_bulk_insert_notifies_every_derived_row(self, system):
        """A writing Glue call outside a transaction is one implicit
        transaction; the path/2 subscriber must get all of it at that
        commit, not at some later, unrelated one."""
        system.load(PATH_RULES + """
            proc grow(:)
              edge(X, Y) += seed(X, Y).
              return(:) := true.
            end
        """)
        system.facts("seed", [(1, 2), (2, 3), (3, 4)])
        notes = []
        system.subscribe("path", 2, callback=collect(notes))
        system.call("grow")
        replica = {row for op, rows, _ in notes if op == OP_INSERT for row in rows}
        assert replica == set(system.query("path(X, Y)?").rows)
        assert len(replica) == 6

    def test_delete_falls_back_to_exact_snapshot_diff(self, system):
        system.load(PATH_RULES)
        system.facts("edge", [(1, 2), (2, 3), (3, 4)])
        notes = []
        system.subscribe("path", 2, callback=collect(notes))
        system.db.relation(mk("edge"), 2).delete(lift(2, 3))
        deletes = [rows for op, rows, _ in notes if op == OP_DELETE]
        inserts = [rows for op, rows, _ in notes if op == OP_INSERT]
        assert len(deletes) == 1
        assert set(deletes[0]) == {
            lift(1, 3), lift(1, 4), lift(2, 3), lift(2, 4)
        }
        assert inserts == []

    def test_oversized_diff_becomes_resync(self, system, monkeypatch):
        system.load(PATH_RULES)
        system.facts("edge", [(n, n + 1) for n in range(6)])
        manager = system.subscriptions
        monkeypatch.setattr(sub_manager, "MAX_DIFF_ROWS", 3)  # force the fallback
        notes = []
        system.subscribe("path", 2, callback=collect(notes))
        system.db.relation(mk("edge"), 2).delete(lift(2, 3))
        assert [op for op, _, _ in notes] == [OP_RESYNC]
        assert manager.resyncs == 1
        # The snapshot was refreshed: the next change delivers deltas again.
        monkeypatch.setattr(sub_manager, "MAX_DIFF_ROWS", 100_000)
        system.db.relation(mk("edge"), 2).delete(lift(0, 1))
        assert any(op == OP_DELETE for op, _, _ in notes)

    def test_changelog_overflow_counts_idb_resync(self, system, monkeypatch):
        system.load(PATH_RULES)
        system.facts("edge", [(1, 2)])
        notes = []
        system.subscribe("path", 2, callback=collect(notes))
        # Shrink the changelog window so the next burst of batches (one
        # entry each, whatever their row count) overflows it.
        monkeypatch.setattr(relation_module, "MAX_CHANGELOG_ENTRIES", 2)
        before = system.db.counters.idb_resyncs
        system.begin()
        for n in range(2, 8):
            system.fact("edge", n, n + 1)
        system.commit()
        assert system.db.counters.idb_resyncs > before
        # Delivery stayed exact: the rebuild path diffs snapshots.
        inserted = {row for op, rows, _ in notes if op == OP_INSERT for row in rows}
        assert lift(2, 3) in inserted and lift(1, 3) in inserted

    @given(
        chain=st.integers(0, 8),
        steps=st.lists(
            st.one_of(
                # autocommitted insert of one or more rows
                st.tuples(st.just("insert"), st.lists(EDGE, min_size=1, max_size=3)),
                # autocommitted delete of a live row, picked by index
                st.tuples(st.just("delete"), st.integers(0, 63)),
                # a rolled-back transaction
                st.tuples(st.just("rollback"), st.lists(EDGE, min_size=1, max_size=3)),
                # a committed transaction mixing inserts and deletes
                st.tuples(
                    st.just("commit"),
                    st.lists(st.tuples(st.booleans(), EDGE), min_size=2, max_size=4),
                ),
            ),
            max_size=30,
        ),
        subscribers=st.integers(1, 4),
    )
    @settings(deadline=None, max_examples=40)
    def test_replay_matches_recomputation(self, chain, steps, subscribers):
        """The differential guarantee: applying pushed deltas in order,
        from the registration snapshot on, reproduces the recomputed
        extension -- for every subscriber, under a random workload."""
        system = GlueNailSystem().load(PATH_RULES)
        system.facts("edge", [(n, n + 1) for n in range(chain)])
        system.query("path(X, Y)?")  # a warm engine, as a live server has
        replicas = []
        for _ in range(subscribers):
            replica = set()

            def apply(note, replica=replica):
                assert note.op != OP_RESYNC, "workload should stay in-window"
                if note.op == OP_INSERT:
                    replica.update(note.rows)
                else:
                    replica.difference_update(note.rows)

            sub = system.subscribe("path", 2, callback=apply, snapshot=True)
            replica.update(sub.snapshot_rows)
            replicas.append(replica)

        relation = system.db.relation(mk("edge"), 2)
        for action, arg in steps:
            if action == "insert":
                system.facts("edge", arg)
            elif action == "delete" and len(relation):
                relation.delete(relation.sorted_rows()[arg % len(relation)])
            elif action == "rollback":
                system.begin()
                system.facts("edge", arg)
                system.rollback()
            elif action == "commit":
                system.begin()
                for insert, row in arg:
                    if insert:
                        system.fact("edge", *row)
                    else:
                        relation.delete(lift(*row))
                system.commit()
        recomputed = set(system.query("path(X, Y)?"))
        for replica in replicas:
            assert replica == recomputed


class TestSubscribeValidation:
    def test_bad_pattern_arity_raises(self, system):
        with pytest.raises(GlueRuntimeError):
            system.subscribe("edge", 2, pattern=(1, 2, 3))

    def test_edb_subscription_before_any_rows(self, system):
        notes = []
        system.subscribe("fresh", 1, callback=collect(notes))
        system.facts("fresh", [(1,)])
        assert notes and notes[0][0] == OP_INSERT


class TestWatchRules:
    WATCH_PROGRAM = PATH_RULES + """
        watch path(X, Y) call on_path;
        proc on_path(Op, X, Y:)
        path_log(Op, X, Y) += in(Op, X, Y).
        end
    """

    def test_watch_runs_the_handler_on_deltas(self, system):
        system.load(self.WATCH_PROGRAM)
        system.compile()
        system.facts("edge", [(1, 2), (2, 3)])
        logged = set(system.db.relation(mk("path_log"), 3).rows())
        assert lift("insert", 1, 2) in logged
        assert lift("insert", 1, 3) in logged

    def test_watch_sees_deletes(self, system):
        system.load(self.WATCH_PROGRAM)
        system.compile()
        system.facts("edge", [(1, 2), (2, 3)])
        system.db.relation(mk("edge"), 2).delete(lift(2, 3))
        logged = set(system.db.relation(mk("path_log"), 3).rows())
        assert lift("delete", 2, 3) in logged
        assert lift("delete", 1, 3) in logged

    def test_watch_with_ground_filter(self, system):
        system.load(
            "watch tick(1, X) call on_tick;\n"
            "proc on_tick(Op, A, B:)\n"
            "tick_log(A, B) += in(Op, A, B).\n"
            "end"
        )
        system.compile()
        system.facts("tick", [(1, 10), (2, 20)])
        logged = set(system.db.relation(mk("tick_log"), 2).rows())
        assert logged == {lift(1, 10)}

    def test_watch_missing_handler_fails_at_compile(self, system):
        system.load("watch edge(X, Y) call nowhere;")
        with pytest.raises(GlueRuntimeError):
            system.compile()

    def test_watch_wrong_handler_arity_fails(self, system):
        system.load(
            "watch edge(X, Y) call bad;\n"
            "proc bad(Op:)\n"
            "bad_log(Op) += in(Op).\n"
            "end"
        )
        with pytest.raises(GlueRuntimeError):
            system.compile()

    def test_recompile_replaces_watch_subscriptions(self, system):
        system.load(self.WATCH_PROGRAM)
        system.compile()
        active = system.subscriptions.subscriptions_active
        system.load("other(X) :- edge(X, X).")
        system.compile()
        assert system.subscriptions.subscriptions_active == active
