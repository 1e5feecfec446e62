"""Tests for the run-time plan cache (``repro.opt.cache``).

Both engines plan at run time through one :class:`PlanCache`: a body is
planned once per (identity, bound set, pinned position, input bucket,
per-relation size buckets) and served from the cache until that key
changes.  Covers the key itself, re-planning when a relation grows (rows
checked against the sqlite3 reference), the planner traffic of a chain
closure, and one compiled program that many systems run: its variants
are planned by the running system's sizes, once per key, with one
planner call each.
"""

from __future__ import annotations

import gc
import sys
import threading
import traceback
import weakref

from repro.analysis.scope import Scope
from repro.core.query import rows_to_python
from repro.core.system import GlueNailSystem
from repro.lang.parser import parse_program
from repro.opt import passes
from repro.opt.cache import PlanCache
from repro.opt.plan import fmt_est
from repro.storage.database import Database
from repro.storage.stats import COUNTER_FIELDS
from repro.vm.compiler import ProgramCompiler
from repro.vm.explain import explain_stmt
from repro.vm.machine import Machine
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


JOIN = "out(X, Y) := big(X, V) & small(V, Y)."
BIG = [(i, i % 50) for i in range(2000)]
SMALL = [(3, "hit"), (7, "hit2")]
# The mirror image: big is tiny and small is large, so the planner keeps
# the compiled order, big first.
FEW = [(1, 3), (2, 7)]
MANY = [(i % 50, i) for i in range(2000)]


def _blind_program():
    """JOIN compiled over an empty database: the planner knows no size, so
    the statement is marked for re-planning."""
    compiled = make_system(JOIN).compile()
    (stmt,) = compiled.script
    assert stmt.replan is not None
    return compiled, stmt


def _fill(system, big, small):
    """``system`` with the facts loaded and its counters reset."""
    system.facts("big", big)
    system.facts("small", small)
    system.reset_counters()
    return system


def _private(big, small, runs=1):
    """A system that compiles JOIN itself, blind, then loads the facts and
    runs the statement ``runs`` times."""
    system = make_system(JOIN)
    system.compile()
    _fill(system, big, small)
    for _ in range(runs):
        system.machine.run_script()
    return system


def _out(system):
    return rows_to_python(system.rows("out", 2))


def _counts(system):
    return dict(zip(COUNTER_FIELDS, system.counters.as_tuple()))


def _run_concurrently(jobs):
    """Run each job in its own thread, all released at once, with the
    interpreter switching threads as often as it can."""
    start = threading.Barrier(len(jobs))
    errors = []

    def worker(job):
        try:
            start.wait()
            job()
        except Exception as exc:  # pragma: no cover - failure path
            errors.append("".join(traceback.format_exception(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(job,)) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, "\n".join(errors)


def _count_optimize(monkeypatch):
    """Record every call of :func:`repro.opt.passes.optimize`, under each
    name a ``repro`` module bound it to."""
    original = passes.optimize
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, counting)
    return calls


class TestSharedProgram:
    def test_no_compiler_outlives_the_compile(self):
        compiler = ProgramCompiler(stats_source=Database().get)
        compiled = compiler.compile_program(parse_program(JOIN))
        assert compiled.script[0].replan is not None
        collected = weakref.ref(compiler)
        del compiler
        gc.collect()
        assert collected() is None

    def test_variant_is_planned_by_the_running_context(self, monkeypatch):
        # System A compiles over an empty database; system B runs A's
        # program over its own 2000 big rows and 2 small ones.
        a = make_system(JOIN)
        compiled = a.compile()
        (stmt,) = compiled.script
        b = _fill(make_system(), BIG, SMALL)
        ctx = b.ctx
        declares = []
        monkeypatch.setattr(Scope, "declare", lambda scope, *args, **kw: declares.append(args))
        Machine(compiled, ctx).run_script()
        (entry,) = compiled.plans.entries()
        assert [str(s.pred) for s in entry.plan.ordered_body] == ["small", "big"]
        assert entry.built is not stmt
        assert (a.counters.plan_cache_misses, b.counters.plan_cache_misses) == (0, 1)
        assert not declares
        monkeypatch.undo()
        assert _out(b) == _out(_private(BIG, SMALL))

    def test_two_systems_run_one_program_concurrently(self):
        compiled, _ = _blind_program()
        data = [(BIG, SMALL), (FEW, MANY)]
        shared = [_fill(make_system(), big, small) for big, small in data]
        machines = [Machine(compiled, system.ctx) for system in shared]

        def job(machine):
            return lambda: [machine.run_script() for _ in range(5)]

        _run_concurrently([job(machine) for machine in machines])
        assert len(compiled.plans.entries()) == 2
        for system, (big, small) in zip(shared, data):
            private = _private(big, small, runs=5)
            assert _out(system) == _out(private)
            assert _counts(system) == _counts(private)


class TestVariantBuild:
    def test_cold_variant_build_plans_once(self, monkeypatch):
        # The cache's plan both picks the order and gives the variant's
        # estimates: no second planner call annotates them.
        system = make_system(JOIN)
        compiled = system.compile()
        (stmt,) = compiled.script
        _fill(system, BIG, SMALL)
        calls = _count_optimize(monkeypatch)
        system.machine.run_script()
        (entry,) = compiled.plans.entries()
        assert entry.built is not stmt
        assert len(calls) == 1
        # A warm hit neither plans nor takes the cache's lock.
        compiled.plans._lock = None
        system.machine.run_script()
        assert len(calls) == 1
        assert system.counters.plan_cache_hits == 1

    def test_variant_explain_shows_the_estimates_of_its_plan(self):
        # hot/1 is filled by += inside repeat: the compile cannot size it,
        # the run-time plan reads its two rows from the frame.
        system = make_system(
            """
            proc pick(:X, Y)
            rels hot(V);
              repeat
                hot(V) += seed(V).
              until unchanged(hot(_));
              return(:X, Y) := big(X, V) & hot(V) & label(V, Y).
            end
            """
        )
        system.facts("big", BIG)
        system.facts("seed", [(3,), (7,)])
        system.facts("label", [(v, f"l{v}") for v in range(50)])
        compiled = system.compile()
        stmt = compiled.find_proc("pick", 2).body[-1]
        system.call("pick")
        (entry,) = [e for e in compiled.plans.entries() if e.built is not stmt]
        scans = [
            (line, planned.est_rows)
            for line, planned in zip(explain_stmt(entry.built)[1:], entry.plan.steps)
            if planned.kind == "scan"
        ]
        assert len(scans) == 4  # in, hot, big, label
        for line, est in scans:
            assert est is not None and f"est~{fmt_est(est)}" in line


class TestVariantRace:
    def test_concurrent_sessions_compile_one_variant_per_key(self):
        # 8 sessions, each a system over its own database with the same
        # facts, run one shared program whose statement re-plans at run
        # time: the program's plan cache builds the key's variant once.
        compiled, stmt = _blind_program()
        systems = [_fill(make_system(), BIG, SMALL) for _ in range(8)]
        machines = [Machine(compiled, system.ctx) for system in systems]

        def job(machine):
            return lambda: [machine.run_script() for _ in range(5)]

        _run_concurrently([job(machine) for machine in machines])
        (entry,) = compiled.plans.entries()
        assert entry.built is not stmt
        assert str(entry.plan.ordered_body[0].pred) == "small"
        assert sum(s.counters.plan_cache_misses for s in systems) == 1
        assert sum(s.counters.plan_cache_hits for s in systems) == 8 * 5 - 1
        expected = _out(_private(BIG, SMALL))
        assert all(_out(system) == expected for system in systems)
