"""Tests for the run-time plan cache (``repro.opt.cache``).

Both engines plan at run time through one :class:`PlanCache`: a body is
planned once per (identity, bound set, pinned position, input bucket,
per-relation size buckets) and served from the cache until that key
changes.  Covers the key itself, re-planning when a relation grows (rows
checked against the sqlite3 reference), the planner traffic of a chain
closure, and concurrent sessions compiling one VM variant per key.
"""

from __future__ import annotations

import sys
import threading
import traceback

from repro.core.query import rows_to_python
from repro.core.system import GlueNailSystem
from repro.lang.parser import parse_program
from repro.opt.cache import PlanCache
from tests.conftest import make_system
from tests.differential import agree, product_rows
from tests.oracle.evaluator import canon


def _body(source: str):
    return parse_program(source).items[0].body


def _sizes(**rows):
    return lambda pred, arity: rows.get(str(pred))


class TestKey:
    def test_hit_serves_the_same_plan(self):
        body = _body("q(X, Z) :- big(X, Y) & tiny(Y, Z).")
        cache = PlanCache()
        first = cache.get(body, _sizes(big=1000, tiny=2))
        second = cache.get(body, _sizes(big=1000, tiny=2))
        assert second is first
        assert first.plan.order == (1, 0)
        assert (cache.counters.plan_cache_misses, cache.counters.plan_cache_hits) == (1, 1)

    def test_miss_at_a_bucket_boundary(self):
        # 2 and 3 share bucket 2 (``bit_length``); 4 opens bucket 3.
        body = _body("q(X, Z) :- a(X, Y) & b(Y, Z).")
        cache = PlanCache()
        for rows in (2, 3):
            cache.get(body, _sizes(a=rows, b=100))
        assert cache.counters.plan_cache_misses == 1
        cache.get(body, _sizes(a=4, b=100))
        assert cache.counters.plan_cache_misses == 2

    def test_unknown_size_is_its_own_bucket(self):
        body = _body("q(X, Z) :- a(X, Y) & b(Y, Z).")
        cache = PlanCache()
        cache.get(body, _sizes(a=0, b=5))
        cache.get(body, _sizes(b=5))
        assert cache.counters.plan_cache_misses == 2

    def test_bound_set_pinned_position_and_input_bucket_are_in_the_key(self):
        body = _body("q(X, Z) :- a(X, Y) & b(Y, Z).")
        stats = _sizes(a=10, b=10)
        cache = PlanCache()
        cache.get(body, stats)
        cache.get(body, stats, frozenset({"X"}))
        cache.get(body, stats, pinned_first=1)
        cache.get(body, stats, input_size=8)
        assert cache.counters.plan_cache_misses == 4
        assert cache.get(body, stats, pinned_first=1).plan.order[0] == 1
        assert cache.counters.plan_cache_hits == 1

    def test_body_identity_is_in_the_key(self):
        source = "q(X, Z) :- a(X, Y) & b(Y, Z)."
        cache = PlanCache()
        cache.get(_body(source), _sizes(a=10, b=10))
        cache.get(_body(source), _sizes(a=10, b=10))
        assert cache.counters.plan_cache_misses == 2

    def test_build_runs_once_per_key(self):
        body = _body("q(X, Z) :- a(X, Y) & b(Y, Z).")
        cache = PlanCache()
        built = []

        def build(plan):
            built.append(plan.order)
            return len(built)

        for _ in range(3):
            assert cache.get(body, _sizes(a=5, b=5), build=build).built == 1
        assert built == [(0, 1)]


class TestNailReplans:
    RULES = "q(X, Z) :- a(X, Y) & b(Y, Z)."
    SMALL = {"a": [(i, i % 10) for i in range(3)], "b": [(i % 10, i) for i in range(100)]}
    GROWN = [(i, i % 10) for i in range(3, 300)]

    def _order(self, system):
        (info,) = system._engine.rule_infos
        return [str(step.subgoal.pred) for step in system._engine.rule_plan(info).steps]

    def test_growth_from_3_to_300_rows_replans_and_rows_agree(self):
        system = GlueNailSystem()

        def first(source, facts, preds):
            return product_rows(source, facts, preds, system=system)

        def grown(source, facts, preds):
            system.facts("a", self.GROWN)
            return {
                (name, arity): sorted(
                    tuple(map(canon, row)) for row in system.rows(name, arity)
                )
                for name, arity in preds
            }

        agree(self.RULES, self.SMALL, product=first)
        assert self._order(system) == ["a", "b"]
        misses = system.counters.plan_cache_misses
        facts = dict(self.SMALL, a=self.SMALL["a"] + self.GROWN)
        agree(self.RULES, facts, product=grown)
        assert system.counters.plan_cache_misses > misses
        assert self._order(system) == ["b", "a"]

    def test_chain_closure_plans_once_per_bucket(self):
        # 201 seminaive rule firings; reach/2 grows through 15 buckets.
        system = GlueNailSystem()
        system.load("reach(X, Y) :- edge(X, Y). reach(X, Z) :- reach(X, Y) & edge(Y, Z).")
        system.facts("edge", [(i, i + 1) for i in range(200)])
        assert len(system.rows("reach", 2)) == 200 * 201 // 2
        counters = system.counters
        assert counters.plan_cache_misses <= 20
        assert counters.plan_cache_hits + counters.plan_cache_misses == 201


class TestVariantRace:
    def test_concurrent_sessions_compile_one_variant_per_key(self):
        # Run-time re-planning of a VM statement compiles a variant under
        # the plan cache's lock: the compile mutates the shared scope, so
        # 8 concurrent sessions must compile each key's variant once.
        system = make_system("out(X, Y) := big(X, V) & small(V, Y).")
        # Compile before the facts load: the compiler has no sizes, marks
        # the statement, and the good order is found at run time.
        compiled = system.compile()
        (stmt,) = compiled.script
        assert stmt.replan is not None
        system.facts("big", [(i, i % 50) for i in range(2000)])
        system.facts("small", [(3, "hit"), (7, "hit2")])
        compiler = compiled.compiler
        recompiles = []
        compile_stmt = compiler._compile_stmt

        def counting_compile(*args, **kwargs):
            recompiles.append(kwargs.get("body_override"))
            return compile_stmt(*args, **kwargs)

        compiler._compile_stmt = counting_compile

        start = threading.Barrier(8)
        errors = []

        def worker():
            try:
                start.wait()
                for _ in range(5):
                    system.run_script()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append("".join(traceback.format_exception(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, "\n".join(errors)
        (entry,) = compiler.plans.entries()
        assert len(recompiles) == 1 and entry.built is not stmt
        assert str(entry.plan.ordered_body[0].pred) == "small"
        assert sorted(rows_to_python(system.rows("out", 2)))
