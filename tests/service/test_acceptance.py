"""Acceptance tests from the subsystem's issue: determinism at scale and
plan-cache fidelity.

* A seeded serve run with >= 50 concurrent queries over one shared
  platform is bit-identical across two invocations;
* the same holds under a fault profile (replays identically);
* on a repeated-shape workload the plan cache serves most lookups
  while every cached allocation equals the freshly solved tDP
  allocation;
* widening the admission window loses no queries and does not raise the
  burst's p95 latency.
"""

from repro.core.latency import mturk_car_latency
from repro.core.tdp import TDPAllocator
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.service import (
    MaxScheduler,
    ServiceConfig,
    generate_workload,
    workload_by_name,
)

LATENCY = mturk_car_latency()


def serve(seed=42, workload="burst", **scheduler_kwargs):
    specs = generate_workload(workload_by_name(workload), seed=seed)
    scheduler = MaxScheduler(specs, LATENCY, seed=seed, **scheduler_kwargs)
    return scheduler, scheduler.run()


class TestBitIdenticalReplay:
    def test_burst_run_replays_bit_identically(self):
        """>= 50 queries arriving at once on one shared platform: two
        invocations under the same seed produce the same report, field
        for field (frozen dataclasses compare exactly, floats included)."""
        _, first = serve()
        _, second = serve()
        assert first.n_queries >= 50
        assert first == second

    def test_burst_run_replays_identically_under_faults(self):
        kwargs = dict(
            fault_profile=fault_profile_by_name("lossy"),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        _, first = serve(**kwargs)
        _, second = serve(**kwargs)
        assert first == second
        assert len(first.finished) == first.n_queries

    def test_fault_free_and_faulted_runs_differ(self):
        """Sanity check that the equality above is not vacuous."""
        _, plain = serve()
        _, faulted = serve(
            fault_profile=fault_profile_by_name("lossy"),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        assert plain != faulted

    def test_different_seeds_differ(self):
        _, first = serve(seed=42)
        _, second = serve(seed=43)
        assert first != second


class TestAdmissionWindow:
    def test_wider_window_loses_no_queries_and_keeps_burst_p95(self):
        narrow, wide = (
            serve(seed=0, config=ServiceConfig(max_active_queries=window))[1]
            for window in (4, 64)
        )
        for report in (narrow, wide):
            assert len(report.finished) == report.n_queries
        assert wide.p95_latency <= narrow.p95_latency


class TestPlanCacheFidelity:
    def test_repeated_workload_hits_and_matches_fresh_solves(self):
        """The repeated-shape workload must produce a non-zero hit rate,
        and every allocation the cache serves must equal a fresh tDP
        solve of the same (c0, budget, latency) inputs."""
        config = ServiceConfig(allocator="tDP")
        scheduler, report = serve(workload="repeated", config=config)
        assert report.cache_hit_rate > 0.5
        assert report.cache_hits > 0
        entries = scheduler.plan_cache.items()
        assert entries
        allocator = TDPAllocator()
        for key, cached in entries:
            fresh = allocator.allocate(key.n_elements, key.budget, LATENCY)
            assert cached == fresh, (
                f"cached allocation for {key} diverged from a fresh solve"
            )

    def test_one_miss_per_distinct_shape(self):
        """Only the first query of each (c0, budget) shape pays a solve;
        every later same-shape query is served from the cache."""
        _, report = serve(workload="repeated")
        shapes = {
            (r.spec.n_elements, r.spec.budget)
            for r in report.results
            if r.finished
        }
        assert report.cache_misses == len(shapes)
        assert report.cache_hits == len(report.finished) - len(shapes)
