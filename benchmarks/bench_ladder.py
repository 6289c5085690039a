"""Scale ladder: per-tick scheduler work bounded by the active set.

Drains the service's ``burst`` shape (every query arrives at t = 0, at
most 64 active) at 10^3 and 10^4 queries and reports queries/s at each
size, plain and armed (SLO engine and brownout on, so every tick reads
the live queue-wait p95 while the whole burst is due).  Wall time alone
cannot show that a tick's cost is independent of the run's length, so
the bench also counts, per tick, the scheduler state it walks: the
backlog entries and results it reads plus the queries in its active and
waiting lists.  That count is deterministic, and it must not grow with
the query count: a tick that rescans every result, as ``_sample_tick``
once did, makes the drain quadratic; so does a p95 that reads every due
arrival.

The same drain counts the session passes (``PROFILER``'s
``session.open_passes`` and ``session.submit_passes``): the scheduler
opens and resolves every query's round in one pass each per tick, so
neither may exceed the tick count, while per-query calls would count
rounds, tens per tick.  It also counts the plan keys built per step
(``plan_cache.keys_built``): admission builds one ``PlanKey`` per
``(c0, budget)`` shape a step admits, so a step may not build more keys
than the distinct shapes it admitted, while one key per query would
count every admission.  Finally it counts the Reliable Worker Layer's
peel passes (``rwl.cycle_peels``): every round of this error-free
shape is a set of disjoint cliques, whose acyclicity the layer's
one-pass certificate decides, so the exact peel must never run.
"""

from __future__ import annotations

import statistics
import time
from collections import deque
from typing import Dict, List, Tuple

from repro.core.latency import mturk_car_latency
from repro.obs.profiling import PROFILER, profiled
from repro.obs.slo import default_slo_config
from repro.service import (
    BrownoutConfig,
    MaxScheduler,
    ServiceConfig,
    WorkloadConfig,
    generate_workload,
)

SIZES = (1_000, 10_000)
SEED = 0


class _CountingBacklog(deque):
    """The scheduler's backlog, counting every entry read from it and
    keeping the entries taken out of it."""

    reads = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.taken = []

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for spec in super().__iter__():
            self.reads += 1
            yield spec

    def popleft(self):
        self.reads += 1
        self.taken.append(super().popleft())
        return self.taken[-1]


class _CountingResults(list):
    """The scheduler's results, counting every result read from them."""

    reads = 0

    def __getitem__(self, index):
        value = super().__getitem__(index)
        self.reads += len(value) if isinstance(index, slice) else 1
        return value

    def __iter__(self):
        for result in super().__iter__():
            self.reads += 1
            yield result


def _burst(n_queries: int, armed: bool) -> MaxScheduler:
    mix = WorkloadConfig(
        n_queries=n_queries,
        mean_interarrival=0.0,
        sizes=(12, 20, 32),
        budget_factors=(4.0, 6.0),
        # Armed, the brownout sheds priority-0 arrivals without a tick, so
        # a longer burst (a longer brownout) would pack more sheds into
        # each tick: per-query work, not a scan.  Only 1 and 2 keep every
        # query on a tick.
        priorities=(1, 2) if armed else (0, 1, 2),
    )
    return MaxScheduler(
        generate_workload(mix, SEED),
        mturk_car_latency(),
        SEED,
        config=ServiceConfig(
            max_active_queries=64,
            brownout=BrownoutConfig() if armed else None,
            slo=default_slo_config() if armed else None,
        ),
    )


def _keys_built() -> int:
    return PROFILER.snapshot().get("plan_cache.keys_built", 0)


def _counted(scheduler: MaxScheduler) -> Tuple[List[int], int]:
    """Drain *scheduler* with :data:`PROFILER` enabled.

    Returns the state it walked on each tick, and the most plan keys any
    step built beyond the distinct shapes it admitted.
    """
    backlog = scheduler._backlog = _CountingBacklog(scheduler._backlog)
    results = scheduler._results = _CountingResults(scheduler._results)
    per_tick: List[int] = []
    excess = None
    while True:
        ticks, reads = scheduler.ticks, backlog.reads + results.reads
        taken, admitted, keys = len(backlog.taken), scheduler._next_seq, _keys_built()
        if not scheduler.step():
            break
        if scheduler.ticks > ticks:
            per_tick.append(
                backlog.reads + results.reads - reads
                + len(scheduler._active) + len(scheduler._waiting)
            )
        # Every arrival taken is admitted here: nothing is shed.
        arrivals = backlog.taken[taken:]
        assert scheduler._next_seq - admitted == len(arrivals)
        shapes = {(spec.n_elements, spec.budget) for spec in arrivals}
        step_excess = _keys_built() - keys - len(shapes)
        excess = step_excess if excess is None else max(excess, step_excess)
    return per_tick, excess


def _throughput(n_queries: int, armed: bool) -> float:
    scheduler = _burst(n_queries, armed)
    start = time.perf_counter()
    report = scheduler.run()
    elapsed = time.perf_counter() - start
    assert report.n_queries == n_queries
    assert report.accuracy == 1.0
    return n_queries / elapsed


def bench_scale_ladder(benchmark):
    """Per-tick work stays flat from 10^3 to 10^4 queries."""

    def ladder() -> Dict[Tuple[bool, int], Dict[str, float]]:
        rows = {}
        for armed in (False, True):
            for n_queries in SIZES:
                with profiled(publish=False) as profiler:
                    per_tick, excess = _counted(_burst(n_queries, armed))
                    passes = profiler.snapshot()
                rows[armed, n_queries] = {
                    "qps": _throughput(n_queries, armed),
                    "ticks": len(per_tick),
                    "work_mean": statistics.fmean(per_tick),
                    "work_max": max(per_tick),
                    "open_passes": passes["session.open_passes"],
                    "submit_passes": passes["session.submit_passes"],
                    "rounds": passes["session.rounds_opened"],
                    "keys": passes["plan_cache.keys_built"],
                    "key_excess": excess,
                    "peels": passes.get("rwl.cycle_peels", 0),
                }
        return rows

    rows = benchmark.pedantic(ladder, rounds=1, iterations=1)
    print()
    print("-- scale ladder / burst shape, 64 active --")
    print(f"{'shape':>6} {'queries':>8} {'queries/s':>10} {'ticks':>6} "
          f"{'work/tick mean':>15} {'max':>5} {'open':>6} {'submit':>6} "
          f"{'rounds':>7} {'keys':>6} {'peels':>6}")
    for (armed, n_queries), row in rows.items():
        print(f"{'armed' if armed else 'plain':>6} {n_queries:>8} "
              f"{row['qps']:>10.0f} {row['ticks']:>6} "
              f"{row['work_mean']:>15.1f} {row['work_max']:>5} "
              f"{row['open_passes']:>6} {row['submit_passes']:>6} "
              f"{row['rounds']:>7} {row['keys']:>6} {row['peels']:>6}")
    for armed in (False, True):
        small, large = rows[armed, SIZES[0]], rows[armed, SIZES[-1]]
        # Deterministic counts: a tick that walked the backlog or the
        # results would grow tenfold here.  The slack covers the ramp-up
        # and drain-out ticks, which weigh more in a short run.
        assert large["work_mean"] <= 1.1 * small["work_mean"]
        assert large["work_max"] <= 1.1 * small["work_max"]
        # Deterministic counts: one open and one submit pass per tick at
        # most, whatever the number of queries sharing it.
        for row in (small, large):
            assert row["open_passes"] <= row["ticks"]
            assert row["submit_passes"] <= row["ticks"]
            # And one plan key per shape a step admits.
            assert row["key_excess"] <= 0
            # Error-free clique rounds pass the acyclicity certificate.
            assert row["peels"] == 0
