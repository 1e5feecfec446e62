"""Tests for the NAIL! engine: on-demand, stratified, cached evaluation."""

import pytest

from repro.baselines.reference import reference_engine
from repro.errors import GlueRuntimeError, UnsafeRuleError
from repro.lang.parser import parse_program
from repro.nail.engine import NailEngine
from repro.storage.database import Database
from repro.terms.term import Atom, Compound, Num, Var


def rules_of(text):
    return list(parse_program(text).items)


PATH = """
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y) & edge(Y, Z).
"""


class TestBasics:
    def test_materialize_transitive_closure(self):
        db = Database()
        db.facts("edge", [(1, 2), (2, 3), (3, 4)])
        engine = NailEngine(db, rules_of(PATH))
        rel = engine.materialize(Atom("path"), 2)
        assert len(rel) == 6

    def test_query_with_bound_argument(self):
        db = Database()
        db.facts("edge", [(1, 2), (2, 3)])
        engine = NailEngine(db, rules_of(PATH))
        rows = engine.query(Atom("path"), (Num(1), Var("Y")))
        assert sorted(r[1].value for r in rows) == [2, 3]

    def test_defines(self):
        engine = NailEngine(Database(), rules_of(PATH))
        assert engine.defines(("path", (), 2))
        assert not engine.defines(("edge", (), 2))

    def test_non_nail_predicate_rejected(self):
        engine = NailEngine(Database(), rules_of(PATH))
        with pytest.raises(GlueRuntimeError):
            engine.materialize(Atom("edge"), 2)

    def test_empty_edb_gives_empty_idb(self):
        engine = NailEngine(Database(), rules_of(PATH))
        assert len(engine.materialize(Atom("path"), 2)) == 0

    def test_unsafe_rule_rejected_up_front(self):
        with pytest.raises(UnsafeRuleError):
            NailEngine(Database(), rules_of("p(X, Y) :- q(X)."))

    def test_naive_and_seminaive_agree(self):
        db = Database()
        db.facts("edge", [(1, 2), (2, 3), (3, 1), (3, 4)])
        semi = NailEngine(db, rules_of(PATH))
        naive = reference_engine(db, rules_of(PATH), naive_fixpoint=True)
        assert (
            semi.materialize(Atom("path"), 2).sorted_rows()
            == naive.materialize(Atom("path"), 2).sorted_rows()
        )


class TestCaching:
    def test_recomputation_only_after_edb_change(self):
        db = Database()
        db.facts("edge", [(1, 2)])
        engine = NailEngine(db, rules_of(PATH))
        first = engine.materialize(Atom("path"), 2)
        again = engine.materialize(Atom("path"), 2)
        assert first is again  # cached relation object

    def test_edb_update_invalidates(self):
        # "The meaning is always: use the current value" (Section 2).
        db = Database()
        db.facts("edge", [(1, 2)])
        engine = NailEngine(db, rules_of(PATH))
        assert len(engine.materialize(Atom("path"), 2)) == 1
        db.fact("edge", 2, 3)
        assert len(engine.materialize(Atom("path"), 2)) == 3

    def test_edb_delete_invalidates(self):
        db = Database()
        db.facts("edge", [(1, 2), (2, 3)])
        engine = NailEngine(db, rules_of(PATH))
        assert len(engine.materialize(Atom("path"), 2)) == 3
        db.get("edge", 2).delete((Num(2), Num(3)))
        assert len(engine.materialize(Atom("path"), 2)) == 1


class TestStratifiedPrograms:
    WINS = """
    win(X) :- move(X, Y) & !win(Y).
    """

    def test_negation_across_strata(self):
        db = Database()
        db.facts("node", [(i,) for i in range(5)])
        db.facts("edge", [(0, 1), (1, 2)])
        rules = rules_of(
            """
            reach(X) :- start(X).
            reach(Y) :- reach(X) & edge(X, Y).
            unreach(X) :- node(X) & !reach(X).
            """
        )
        db.facts("start", [(0,)])
        engine = NailEngine(db, rules)
        unreach = engine.materialize(Atom("unreach"), 1)
        assert sorted(r[0].value for r in unreach.rows()) == [3, 4]

    def test_aggregation_in_lower_stratum(self):
        db = Database()
        db.facts("salary", [("ann", 10), ("bob", 20), ("cat", 30)])
        rules = rules_of(
            """
            avg_salary(A) :- salary(_, S) & A = mean(S).
            above_avg(N) :- salary(N, S) & avg_salary(A) & S > A.
            """
        )
        engine = NailEngine(db, rules)
        above = engine.materialize(Atom("above_avg"), 1)
        assert [r[0].name for r in above.rows()] == ["cat"]

    def test_group_by_in_rules(self):
        db = Database()
        db.facts("grade", [("cs1", 80), ("cs1", 90), ("cs2", 60)])
        rules = rules_of("avg(C, A) :- grade(C, G) & group_by(C) & A = mean(G).")
        engine = NailEngine(db, rules)
        rows = engine.materialize(Atom("avg"), 2).sorted_rows()
        assert [(r[0].name, r[1].value) for r in rows] == [("cs1", 85.0), ("cs2", 60)]


class TestFactsAndRulesMix:
    def test_edb_facts_union_with_rules(self):
        # A predicate may have stored facts *and* rules.
        db = Database()
        db.facts("path", [(100, 200)])
        db.facts("edge", [(1, 2)])
        engine = NailEngine(db, rules_of(PATH))
        rows = engine.materialize(Atom("path"), 2)
        assert (Num(100), Num(200)) in rows
        assert (Num(1), Num(2)) in rows

    def test_facts_feed_recursion(self):
        db = Database()
        db.facts("path", [(0, 1)])
        db.facts("edge", [(1, 2)])
        engine = NailEngine(db, rules_of(PATH))
        rows = engine.materialize(Atom("path"), 2)
        # The seeded fact path(0,1) extends through edge(1,2).
        assert (Num(0), Num(2)) in rows

    def test_source_facts_via_unit_clauses(self):
        db = Database()
        rules = rules_of(PATH + "edge(1, 2).\nedge(2, 3).")
        engine = NailEngine(db, rules)
        assert len(engine.materialize(Atom("path"), 2)) == 3


class TestHiLogFamilies:
    def test_family_materialization(self):
        db = Database()
        db.facts("attends", [("wilson", "cs99"), ("green", "cs99"), ("kim", "cs1")])
        engine = NailEngine(db, rules_of("students(ID)(N) :- attends(N, ID)."))
        cs99 = engine.materialize(Compound(Atom("students"), (Atom("cs99"),)), 1)
        assert len(cs99) == 2
        cs1 = engine.materialize(Compound(Atom("students"), (Atom("cs1"),)), 1)
        assert len(cs1) == 1

    def test_recursive_family(self):
        db = Database()
        db.facts("e", [("g1", 1, 2), ("g1", 2, 3), ("g2", 5, 6)])
        rules = rules_of(
            """
            tc(G)(X, Y) :- e(G, X, Y).
            tc(G)(X, Z) :- tc(G)(X, Y) & e(G, Y, Z).
            """
        )
        engine = NailEngine(db, rules)
        g1 = engine.materialize(Compound(Atom("tc"), (Atom("g1"),)), 2)
        assert len(g1) == 3
        g2 = engine.materialize(Compound(Atom("tc"), (Atom("g2"),)), 2)
        assert len(g2) == 1

    def test_predicate_variable_body(self):
        db = Database()
        db.facts("colors", [("red",), ("blue",)])
        db.facts("listing", [("colors",)])
        rules = rules_of("all_members(S, X) :- listing(S) & S(X).")
        engine = NailEngine(db, rules)
        rows = engine.materialize(Atom("all_members"), 2)
        assert len(rows) == 2

    def test_predicate_variable_reads_derived_names(self):
        # A predicate variable ranges over NAIL! names too: ``flipped`` is
        # derived before ``seen`` reads it, even when ``seen`` is asked
        # for first, and ``seen`` naming itself is recursion.
        db = Database()
        db.facts("e", [(1, 2), (2, 3)])
        db.facts("names", [("flipped",), ("seen",)])
        rules = rules_of(
            """
            flipped(X, Y) :- e(Y, X).
            seen(X, Y) :- names(P) & P(X, Y).
            seen(X, Z) :- seen(X, Y) & e(Y, Z).
            again(X, Y) :- names(P) & P(X, Y) & X < Y.
            """
        )
        engine = NailEngine(db, rules)
        again = {(a.value, b.value) for a, b in engine.materialize(Atom("again"), 2)}
        seen = {(a.value, b.value) for a, b in engine.materialize(Atom("seen"), 2)}
        assert seen == {(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)}
        assert again == {(2, 3)}


class TestDemandEvaluation:
    """Demand-driven answers for rules that need caller bindings."""

    DEMAND_RULE = "shifted(X, Y) :- offset(D) & Y = X + D."

    def _engine(self):
        db = Database()
        db.facts("offset", [(10,), (20,)])
        return NailEngine(db, rules_of(self.DEMAND_RULE), check_safety=False), db

    def test_can_materialize_false_for_demand_rule(self):
        engine, _ = self._engine()
        assert not engine.can_materialize(Atom("shifted"), 2)

    def test_materialize_raises_with_guidance(self):
        from repro.errors import UnsafeRuleError

        engine, _ = self._engine()
        with pytest.raises(UnsafeRuleError, match="demand"):
            engine.materialize(Atom("shifted"), 2)

    def test_query_uses_demand_path(self):
        engine, _ = self._engine()
        rows = engine.query(Atom("shifted"), (Num(1), Var("Y")))
        assert sorted(r[1].value for r in rows) == [11, 21]

    def test_demand_cache_hit(self):
        engine, db = self._engine()
        engine.query(Atom("shifted"), (Num(1), Var("Y")))
        scans_after_first = db.counters.tuples_scanned
        engine.query(Atom("shifted"), (Num(1), Var("Y")))
        assert db.counters.tuples_scanned == scans_after_first  # cached

    def test_demand_cache_invalidated_by_edb_change(self):
        engine, db = self._engine()
        assert len(engine.query(Atom("shifted"), (Num(1), Var("Y")))) == 2
        db.fact("offset", 30)
        assert len(engine.query(Atom("shifted"), (Num(1), Var("Y")))) == 3

    def test_demand_with_negation_falls_back_to_full(self):
        # Negated IDB literals are outside the magic fragment; a demand
        # query on a *safe* program falls back to full evaluation.
        db = Database()
        db.facts("node", [(1,), (2,)])
        db.facts("edge", [(1, 2)])
        rules = rules_of(
            """
            covered(X) :- edge(X, _).
            lonely(X) :- node(X) & !covered(X).
            """
        )
        engine = NailEngine(db, rules, check_safety=False)
        rows = engine.demand(Atom("lonely"), 1, (Num(2),))
        assert [r[0].value for r in rows] == [2]


class TestIncrementalMaintenance:
    """Dependency-scoped invalidation and delta-driven repair."""

    NEG = PATH + "unreach(X, Y) :- node(X) & node(Y) & !path(X, Y).\n"

    def chain_db(self, n=6):
        db = Database()
        db.facts("edge", [(i, i + 1) for i in range(1, n)])
        return db

    def test_unrelated_write_keeps_cache(self):
        db = self.chain_db()
        db.fact("color", 1, 2)
        engine = NailEngine(db, rules_of(PATH))
        first = engine.materialize(Atom("path"), 2)
        db.fact("color", 2, 3)
        again = engine.materialize(Atom("path"), 2)
        assert first is again
        assert db.counters.idb_cache_hits >= 1
        assert db.counters.idb_invalidations == 0
        assert db.counters.idb_delta_repairs == 0

    def test_insert_repairs_instead_of_rebuilding(self):
        db = self.chain_db()
        engine = NailEngine(db, rules_of(PATH))
        first = engine.materialize(Atom("path"), 2)
        n0 = len(first)
        db.fact("edge", 0, 1)
        repaired = engine.materialize(Atom("path"), 2)
        assert repaired is first  # same Relation object, grown in place
        assert len(repaired) > n0
        assert db.counters.idb_delta_repairs == 1
        assert db.counters.idb_invalidations == 0
        fresh = NailEngine(db, rules_of(PATH)).materialize(Atom("path"), 2)
        assert set(repaired.rows()) == set(fresh.rows())

    def test_delete_falls_back_to_scoped_rebuild(self):
        db = self.chain_db()
        engine = NailEngine(db, rules_of(PATH))
        engine.materialize(Atom("path"), 2)
        db.get("edge", 2).delete((Num(3), Num(4)))
        repaired = engine.materialize(Atom("path"), 2)
        assert db.counters.idb_invalidations >= 1
        fresh = NailEngine(db, rules_of(PATH)).materialize(Atom("path"), 2)
        assert set(repaired.rows()) == set(fresh.rows())

    def test_growth_under_negation_rebuilds_dependent_stratum_only(self):
        db = self.chain_db(4)
        db.facts("node", [(i,) for i in range(1, 6)])
        engine = NailEngine(db, rules_of(self.NEG))
        engine.materialize(Atom("unreach"), 2)
        db.fact("edge", 4, 5)
        repaired = engine.materialize(Atom("unreach"), 2)
        # path (monotone) was repaired; unreach (negation on path) rebuilt.
        assert db.counters.idb_delta_repairs == 1
        assert db.counters.idb_invalidations == 1
        fresh = NailEngine(db, rules_of(self.NEG)).materialize(Atom("unreach"), 2)
        assert set(repaired.rows()) == set(fresh.rows())

    def test_naive_strategy_never_repairs(self):
        db = self.chain_db()
        engine = reference_engine(db, rules_of(PATH), naive_fixpoint=True)
        engine.materialize(Atom("path"), 2)
        db.fact("edge", 0, 1)
        repaired = engine.materialize(Atom("path"), 2)
        assert db.counters.idb_delta_repairs == 0
        assert db.counters.idb_invalidations >= 1
        fresh = reference_engine(db, rules_of(PATH), naive_fixpoint=True)
        assert set(repaired.rows()) == set(fresh.materialize(Atom("path"), 2).rows())

    def test_rollback_style_churn_is_no_change(self):
        db = self.chain_db()
        engine = NailEngine(db, rules_of(PATH))
        first = engine.materialize(Atom("path"), 2)
        db.fact("edge", 50, 51)
        db.get("edge", 2).delete((Num(50), Num(51)))
        again = engine.materialize(Atom("path"), 2)
        assert again is first
        assert db.counters.idb_delta_repairs == 0
        assert db.counters.idb_invalidations == 0

    def test_mixed_sequence_matches_from_scratch(self):
        db = self.chain_db()
        engine = NailEngine(db, rules_of(PATH))
        edge = db.get("edge", 2)
        for step in range(8):
            if step % 3 == 2:
                edge.delete(list(edge.rows())[step % len(edge)])
            else:
                db.fact("edge", step + 10, step + 11)
                db.fact("edge", step + 2, step + 10)
            got = set(engine.materialize(Atom("path"), 2).rows())
            want = set(
                NailEngine(db, rules_of(PATH)).materialize(Atom("path"), 2).rows()
            )
            assert got == want, f"diverged at step {step}"

    def test_demand_cache_survives_unrelated_write(self):
        db = self.chain_db()
        db.fact("color", 1, 2)
        rules = rules_of(
            "reach(X, Y) :- edge(X, Y).\n"
            "reach(X, Z) :- reach(X, Y) & edge(Y, Z).\n"
        )
        engine = NailEngine(db, rules)
        first = engine.demand(Atom("reach"), 2, (Num(1), Var("Y")))
        db.fact("color", 7, 8)
        scanned = db.counters.tuples_scanned
        hits = db.counters.idb_cache_hits
        again = engine.demand(Atom("reach"), 2, (Num(1), Var("Y")))
        assert set(again) == set(first)
        assert db.counters.tuples_scanned == scanned  # served from cache
        assert db.counters.idb_cache_hits == hits + 1

    def test_demand_cache_invalidated_by_relevant_write(self):
        db = self.chain_db(4)
        engine = NailEngine(db, rules_of(PATH))
        first = engine.demand(Atom("path"), 2, (Num(1), Var("Y")))
        db.fact("edge", 4, 5)
        again = engine.demand(Atom("path"), 2, (Num(1), Var("Y")))
        assert len(again) == len(first) + 1

    def test_demand_flat_residual_uses_indexed_answers(self):
        db = self.chain_db()
        engine = NailEngine(db, rules_of(PATH))
        all_rows = engine.demand(Atom("path"), 2, (Var("X"), Var("Y")))
        narrowed = engine.demand(Atom("path"), 2, (Num(1), Var("Y")))
        assert set(narrowed) < set(all_rows)
        assert all(r[0] == Num(1) for r in narrowed)

    def test_seed_facts_under_idb_name_repair(self):
        db = self.chain_db(4)
        engine = NailEngine(db, rules_of(PATH))
        engine.materialize(Atom("path"), 2)
        # A fact inserted directly under the derived predicate's own name.
        db.fact("path", 100, 200)
        repaired = engine.materialize(Atom("path"), 2)
        assert (Num(100), Num(200)) in repaired
        assert db.counters.idb_invalidations == 0
        fresh = NailEngine(db, rules_of(PATH)).materialize(Atom("path"), 2)
        assert set(repaired.rows()) == set(fresh.rows())

    def test_cache_info_epochs_move_only_for_touched_strata(self):
        db = self.chain_db(4)
        db.fact("color", 1, 1)
        engine = NailEngine(db, rules_of(PATH))
        engine.materialize(Atom("path"), 2)
        epoch0 = list(engine._stratum_epoch)
        db.fact("color", 2, 2)
        engine.materialize(Atom("path"), 2)
        assert engine._stratum_epoch == epoch0
        db.fact("edge", 7, 8)
        engine.materialize(Atom("path"), 2)
        assert engine._stratum_epoch != epoch0
