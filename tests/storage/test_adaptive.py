"""Tests for adaptive run-time index creation (paper Section 10)."""

from repro.storage.adaptive import AdaptiveIndexPolicy, AlwaysIndexPolicy, NeverIndexPolicy
from repro.storage.relation import Relation
from repro.storage.stats import ScanCostLedger
from repro.terms.term import Atom, Num, Var


def build_relation(policy, n=100):
    r = Relation(Atom("r"), 2, index_policy=policy)
    r.insert_many([(Num(i % 10), Num(i)) for i in range(n)])
    return r


class TestPolicies:
    def test_adaptive_triggers_at_crossover(self):
        policy = AdaptiveIndexPolicy()
        ledger = ScanCostLedger()
        assert not policy.should_build(ledger, 100)
        ledger.record_scan(50)
        assert not policy.should_build(ledger, 100)
        ledger.record_scan(50)
        assert policy.should_build(ledger, 100)  # cumulative 100 >= build 100

    def test_adaptive_never_builds_on_empty_relation(self):
        policy = AdaptiveIndexPolicy()
        ledger = ScanCostLedger()
        ledger.record_scan(0)
        assert not policy.should_build(ledger, 0)

    def test_never_policy(self):
        ledger = ScanCostLedger()
        ledger.record_scan(10**9)
        assert not NeverIndexPolicy().should_build(ledger, 10)

    def test_always_policy(self):
        assert AlwaysIndexPolicy().should_build(ScanCostLedger(), 1)
        assert not AlwaysIndexPolicy().should_build(ScanCostLedger(), 0)


class TestAdaptiveInRelation:
    def test_index_appears_after_enough_scans(self):
        r = build_relation(AdaptiveIndexPolicy(), n=100)
        assert not r.has_index((0,))
        # First selection scans (cost 100 >= build cost 100) and arms the
        # policy; the second selection builds and uses the index.
        list(r.select((Num(3), Var("Y"))))
        assert not r.has_index((0,))
        list(r.select((Num(3), Var("Y"))))
        assert r.has_index((0,))

    def test_never_policy_never_builds(self):
        r = build_relation(NeverIndexPolicy(), n=50)
        for _ in range(20):
            list(r.select((Num(3), Var("Y"))))
        assert r.index_columns == []

    def test_always_policy_builds_first_selection(self):
        r = build_relation(AlwaysIndexPolicy(), n=50)
        list(r.select((Num(3), Var("Y"))))
        assert r.has_index((0,))

    def test_results_identical_across_policies(self):
        results = {}
        for name, policy in [
            ("never", NeverIndexPolicy()),
            ("always", AlwaysIndexPolicy()),
            ("adaptive", AdaptiveIndexPolicy()),
        ]:
            r = build_relation(policy, n=60)
            out = []
            for k in range(10):
                out.append(sorted(str(b) for b in r.select((Num(k % 10), Var("Y")))))
            results[name] = out
        assert results["never"] == results["always"] == results["adaptive"]

    def test_adaptive_beats_never_for_many_lookups(self):
        adaptive = build_relation(AdaptiveIndexPolicy(), n=200)
        never = build_relation(NeverIndexPolicy(), n=200)
        for _ in range(50):
            list(adaptive.select((Num(3), Var("Y"))))
            list(never.select((Num(3), Var("Y"))))
        assert (
            adaptive.counters.total_tuple_touches < never.counters.total_tuple_touches
        )

    def test_always_wastes_build_for_single_lookup(self):
        adaptive = build_relation(AdaptiveIndexPolicy(), n=200)
        always = build_relation(AlwaysIndexPolicy(), n=200)
        list(adaptive.select((Num(3), Var("Y"))))
        list(always.select((Num(3), Var("Y"))))
        # One lookup: adaptive scanned (200); always built an index (200)
        # and probed -- strictly more total work.
        assert (
            adaptive.counters.total_tuple_touches < always.counters.total_tuple_touches
        )

    def test_distinct_ledgers_per_column_set(self):
        r = build_relation(AdaptiveIndexPolicy(), n=100)
        list(r.select((Num(3), Var("Y"))))
        list(r.select((Var("X"), Num(7))))
        list(r.select((Num(3), Var("Y"))))
        assert r.has_index((0,))
        assert not r.has_index((1,))
