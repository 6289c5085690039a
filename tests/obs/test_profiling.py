"""Tests for the solver profiling counters (``repro.obs.profiling``)."""

import pytest

from repro.core.latency import LinearLatency
from repro.core.tdp import solve_min_latency
from repro.core.tdp_memo import solve_min_latency_memo
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import (
    PROFILER,
    SolverProfiler,
    profiled,
    render_profile,
)
from repro.service.plan_cache import PlanCache, PlanKey

LATENCY = LinearLatency(239, 0.06)


class TestSolverProfiler:
    def test_disabled_by_default(self):
        assert PROFILER.enabled is False

    def test_add(self):
        profiler = SolverProfiler()
        profiler.add("cells", 10)
        profiler.add("cells", 5)
        profiler.add("rows")
        assert profiler.snapshot() == {"cells": 15, "rows": 1}

    def test_reset_clears_counts_not_the_flag(self):
        profiler = SolverProfiler()
        profiler.enabled = True
        profiler.add("x")
        profiler.reset()
        assert profiler.snapshot() == {}
        assert profiler.enabled is True

    def test_publish_prefixes_solver(self):
        registry = MetricsRegistry()
        profiler = SolverProfiler()
        profiler.add("memo.hits", 4)
        profiler.publish(registry)
        assert registry.counter("solver.memo.hits").value == 4


class TestProfiledContext:
    def test_enables_resets_and_restores(self):
        PROFILER.add("stale", 1)
        with profiled(publish=False) as profiler:
            assert profiler is PROFILER
            assert PROFILER.enabled is True
            assert "stale" not in PROFILER.snapshot()
        assert PROFILER.enabled is False

    def test_restores_flag_on_exception(self):
        with pytest.raises(RuntimeError):
            with profiled(publish=False):
                raise RuntimeError("boom")
        assert PROFILER.enabled is False

    def test_publishes_to_the_given_registry(self):
        registry = MetricsRegistry()
        with profiled(registry):
            solve_min_latency(20, 60, LATENCY)
        assert registry.counter("solver.frontier.solves").value == 1
        assert registry.counter("solver.frontier.rows").value == 19


class TestSolverCounters:
    def test_frontier_counts_are_deterministic_work(self):
        with profiled(publish=False) as profiler:
            solve_min_latency(50, 300, LATENCY)
        first = profiler.snapshot()
        with profiled(publish=False) as profiler:
            solve_min_latency(50, 300, LATENCY)
        assert profiler.snapshot() == first
        assert first["frontier.solves"] == 1
        assert first["frontier.rows"] == 49
        assert first["frontier.cells"] > 0
        # Complete rows: one candidate per stored point, none dropped.
        assert first["frontier.candidates"] == first["frontier.cells"]

    def test_memo_counts_hits_and_misses(self):
        with profiled(publish=False) as profiler:
            solve_min_latency_memo(15, 40, LATENCY)
        counts = profiler.snapshot()
        assert counts["memo.solves"] == 1
        assert counts["memo.misses"] > 0
        assert counts["memo.hits"] > 0
        assert 0 < counts["memo.states"] <= counts["memo.misses"]

    def test_disabled_solves_record_nothing(self):
        solve_min_latency(20, 60, LATENCY)
        solve_min_latency_memo(15, 40, LATENCY)
        assert PROFILER.snapshot() == {} or not PROFILER.enabled


class TestPlanCacheCounters:
    def _key(self, n=20, budget=100, latency_key="lin"):
        return PlanKey(
            n_elements=n, budget=budget, latency_key=latency_key, repetition=1,
        )

    def _allocation(self, n=20, budget=100):
        from repro.core.allocation import Allocation

        plan = solve_min_latency(n, budget, LATENCY)
        return Allocation.from_element_sequence(plan.sequence, "tDP")

    def test_hit_miss_and_shape_hit(self):
        cache = PlanCache()
        with profiled(publish=False) as profiler:
            key = self._key()
            assert cache.get(key) is None          # cold miss
            cache.put(key, self._allocation())
            assert cache.get(key) is not None      # full hit
            # Same (n, budget) shape, different latency: a plain miss.
            assert cache.get(self._key(latency_key="other")) is None
        counts = profiler.snapshot()
        assert counts["plan_cache.hits"] == 1
        assert counts["plan_cache.misses"] == 2


class TestRendering:
    def test_render_empty(self):
        assert render_profile({}) == "no profiling counters recorded"

    def test_render_aligns_names(self):
        text = render_profile({"a": 1, "long.counter.name": 22})
        lines = text.splitlines()
        assert lines[0].startswith("counter")
        assert any(line.startswith("long.counter.name  22") for line in lines)
