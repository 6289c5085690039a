"""The service benchmark's workloads: a query trace plus scheduler settings.

Each workload is one traffic mix for :class:`~repro.service.MaxScheduler`.
Its query trace comes from a :class:`~repro.service.WorkloadConfig` fixed
here, not from the service's named presets, so a later change to a preset
does not silently change the benchmark's input.  Generation happens
outside every timer: the scheduler only ever receives the finished
``QuerySpec`` list.

The trace (sizes, budgets, priorities, arrival times) is drawn once with
:data:`TRACE_SEED`; the benchmark's ``--seed`` seeds the scheduler, that
is the simulated crowd: the hidden true order, worker response times,
worker errors, injected faults and selector tie-breaks.  A seeded trace
would make the simulated latencies of the queue-bound workloads swing by
10-13% from seed to seed (arrival bursts, not the code, decide them) and
change how much planning work ``distinct_shapes`` asks for.

All four are closed batch drains: arrivals are stamped on the simulated
clock and the whole list is handed over at construction, so wall-clock
throughput is reported at the stated input size, not as a sustainable
arrival rate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.latency import mturk_car_latency
from repro.crowd.error_models import UniformError
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.crowd.multibackend import HedgeConfig
from repro.crowd.multibackend.presets import backend_preset_by_name
from repro.obs.slo import default_slo_config
from repro.service import (
    BrownoutConfig,
    MaxScheduler,
    QuerySpec,
    SchedulerJournal,
    ServiceConfig,
    WorkloadConfig,
    generate_workload,
)

#: Seed of every workload's query trace.
TRACE_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    Attributes:
        name: registry key, also the ``--workload`` value; why each
            workload exists is recorded next to it in ``BENCHMARK.json``.
        mix: query-arrival and query-shape distributions.
        smoke_queries: queries per drain under ``--smoke`` (2-3%).
        settings: fresh ``MaxScheduler`` keyword arguments per call, so no
            stateful object is shared between repeats.
        error_free: workers never answer wrongly, so accuracy must be 1.
        journaled: the scheduler writes a write-ahead journal.
    """

    name: str
    mix: WorkloadConfig
    smoke_queries: int
    settings: Callable[[], Dict[str, Any]]
    error_free: bool = True
    journaled: bool = False

    def specs(self, smoke: bool = False) -> List[QuerySpec]:
        """The workload's query trace."""
        count = self.smoke_queries if smoke else None
        return generate_workload(self.mix, TRACE_SEED, n_queries=count)

    def build(
        self,
        specs: List[QuerySpec],
        seed: int,
        journal_dir: Optional[str] = None,
    ) -> MaxScheduler:
        """Construct the scheduler, attaching a fresh journal if needed.

        This is exactly the work ``setup_s`` times.
        """
        journal = None
        if self.journaled:
            journal = SchedulerJournal.create(
                os.path.join(journal_dir, "journal.jsonl")
            )
        return MaxScheduler(
            specs, mturk_car_latency(), seed, journal=journal,
            **self.settings(),
        )


def _burst() -> Dict[str, Any]:
    return {"config": ServiceConfig(max_active_queries=64)}


def _distinct() -> Dict[str, Any]:
    return {"config": ServiceConfig()}


def _fleet() -> Dict[str, Any]:
    return {
        "config": ServiceConfig(
            routing="least-loaded",
            hedge=HedgeConfig(hedge_after=250.0),
            brownout=BrownoutConfig(),
            slo=default_slo_config(),
            max_active_queries=32,
        ),
        "backends": backend_preset_by_name("outage-trio"),
    }


def _noisy() -> Dict[str, Any]:
    return {
        "config": ServiceConfig(repetition=3, max_active_queries=64),
        "error_model": UniformError(0.1),
        "fault_profile": fault_profile_by_name("lossy"),
        "retry_policy": RetryPolicy(),
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="burst_3k",
            # The service's "burst" preset shape, at a size where
            # throughput has already sagged to its 10^4-query level.
            mix=WorkloadConfig(
                n_queries=3_000,
                mean_interarrival=0.0,
                sizes=(12, 20, 32),
                budget_factors=(4.0, 6.0),
                priorities=(0, 1, 2),
            ),
            smoke_queries=60,
            settings=_burst,
        ),
        Workload(
            name="distinct_shapes",
            mix=WorkloadConfig(
                n_queries=100,
                mean_interarrival=60.0,
                sizes=tuple(range(100, 401, 6)),
                budget_factors=(2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0),
            ),
            smoke_queries=3,
            settings=_distinct,
        ),
        Workload(
            name="fleet_journaled",
            # The service's "deadline" preset shape: every query carries
            # an enforced 9000 s end-to-end budget.
            mix=WorkloadConfig(
                n_queries=1_500,
                mean_interarrival=45.0,
                sizes=(12, 20, 28),
                budget_factors=(4.0, 6.0),
                priorities=(0, 1, 2),
                deadline_seconds=9000.0,
            ),
            smoke_queries=30,
            settings=_fleet,
            journaled=True,
        ),
        Workload(
            name="noisy_retry",
            # The service's "steady" preset shape.
            mix=WorkloadConfig(
                n_queries=1_200,
                mean_interarrival=60.0,
                sizes=(16, 24, 40),
                budget_factors=(4.0, 5.0, 8.0),
                priorities=(0, 1),
            ),
            smoke_queries=24,
            settings=_noisy,
            error_free=False,
        ),
    )
}
