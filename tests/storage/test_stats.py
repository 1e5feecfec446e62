"""Unit tests for the cost-counter blocks."""

import sys
import threading

from repro.storage.stats import (
    CostCounters,
    RelationStats,
    ScanCostLedger,
    ThreadLocalCounters,
)


class TestCostCounters:
    def test_reset(self):
        counters = CostCounters()
        counters.tuples_scanned = 10
        counters.proc_calls = 2
        counters.reset()
        assert counters.tuples_scanned == 0
        assert counters.proc_calls == 0

    def test_snapshot_covers_all_fields(self):
        counters = CostCounters()
        snapshot = counters.snapshot()
        assert "tuples_scanned" in snapshot
        assert "pipeline_breaks" in snapshot
        assert "dynamic_dispatches" in snapshot
        assert all(v == 0 for v in snapshot.values())

    def test_addition(self):
        a = CostCounters(tuples_scanned=3, inserts=1)
        b = CostCounters(tuples_scanned=4, deletes=2)
        merged = a + b
        assert merged.tuples_scanned == 7
        assert merged.inserts == 1
        assert merged.deletes == 2

    def test_total_tuple_touches(self):
        counters = CostCounters(
            tuples_scanned=10,
            index_probe_tuples=5,
            index_build_tuples=3,
            inserts=2,
            deletes=1,
            materialized_tuples=4,
        )
        assert counters.total_tuple_touches == 25

    def test_touches_exclude_counts_not_costs(self):
        # Pure event counters (breaks, lookups, calls) are not touches.
        counters = CostCounters(pipeline_breaks=7, index_lookups=9, proc_calls=3)
        assert counters.total_tuple_touches == 0


class TestThreadLocalCounters:
    def test_concurrent_increments_lose_nothing(self):
        """Eight threads count into one shared facade at once.

        Each ``+=`` lands on the calling thread's private block, so the
        read-modify-writes never race (the query server relies on this for
        per-session counting); ``aggregate`` must see every increment and
        each thread's own view only its own.
        """
        shared = ThreadLocalCounters()
        threads_n, rounds = 8, 500
        barrier = threading.Barrier(threads_n)
        views = []

        def worker():
            barrier.wait(timeout=10)
            for _ in range(rounds):
                shared.inserts += 1
                shared.tuples_scanned += 2
                shared.index_lookups += 3
            views.append(shared.as_tuple())

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid read-modify-write
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        total = shared.aggregate()
        assert total.inserts == threads_n * rounds
        assert total.tuples_scanned == 2 * threads_n * rounds
        assert total.index_lookups == 3 * threads_n * rounds
        own = CostCounters(
            inserts=rounds, tuples_scanned=2 * rounds, index_lookups=3 * rounds
        ).as_tuple()
        assert views == [own] * threads_n


    def test_retire_folds_only_the_calling_threads_block(self):
        # Two threads with equal counts: their blocks compare equal, and
        # retiring one must not drop the other (still counting) block.
        shared = ThreadLocalCounters()
        shared.inserts += 1
        retired = threading.Event()

        def worker():
            shared.inserts += 1
            shared.retire()
            retired.set()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert retired.is_set()
        shared.inserts += 1
        assert len(shared._blocks) == 1
        assert shared.aggregate().inserts == 3
        assert shared.inserts == 2

    def test_a_count_after_retire_still_reaches_the_aggregate(self):
        shared = ThreadLocalCounters()

        def worker():
            shared.inserts += 1
            shared.retire()
            shared.inserts += 10  # e.g. a connection's last teardown work

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert shared.aggregate().inserts == 11
        shared.retire()  # the main thread never counted: nothing to fold
        assert shared.aggregate().inserts == 11

    def test_short_lived_threads_leave_no_blocks_behind(self):
        shared = ThreadLocalCounters()
        shared.deletes += 1

        def worker(n):
            shared.inserts += n
            shared.retire()

        for n in range(50):
            thread = threading.Thread(target=worker, args=(n,))
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(shared._blocks) <= threading.active_count() + 1
        total = shared.aggregate()
        assert (total.inserts, total.deletes) == (sum(range(50)), 1)
        assert len(shared._blocks) + len(shared._late) <= threading.active_count()

    def test_is_a_cost_counter_block_of_the_calling_thread(self):
        shared = ThreadLocalCounters()
        assert isinstance(shared, CostCounters)
        shared.inserts += 2
        seen = {}

        def worker():
            seen["fresh"] = (shared.as_tuple(), shared.snapshot())
            shared.tuples_scanned += 5
            shared.reset()
            seen["reset"] = shared.as_tuple()
            shared.deletes += 1

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        zero = CostCounters()
        assert seen == {"fresh": (zero.as_tuple(), zero.snapshot()), "reset": zero.as_tuple()}
        assert shared.snapshot() == CostCounters(inserts=2).snapshot()
        assert shared.total_tuple_touches == 2
        assert (shared.aggregate().inserts, shared.aggregate().deletes) == (2, 1)
        shared.reset()
        assert shared.as_tuple() == zero.as_tuple()
        assert shared.aggregate().deletes == 1


class TestLedgers:
    def test_ledger_accumulates(self):
        ledger = ScanCostLedger()
        ledger.record_scan(10)
        ledger.record_scan(15)
        assert ledger.cumulative_scan_cost == 25
        assert ledger.scans == 2

    def test_relation_stats_per_column_set(self):
        stats = RelationStats()
        a = stats.ledger((0,))
        b = stats.ledger((1,))
        assert a is not b
        assert stats.ledger((0,)) is a
