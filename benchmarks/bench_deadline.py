"""Deadline, hedging and brownout benchmarks.

Three claims the robustness layer has to back with numbers:

* the deadline machinery is free when unused
  (``bench_deadline_off_overhead`` — a default ``ServiceConfig`` with no
  deadlines must be bit-identical to the config-free run, and its
  wall-clock within 2%);
* hedged posting buys tail latency on a flaky fleet
  (``bench_hedged_tail_p99`` — outage-trio p99 with and without
  mirroring, plus what the mirrors cost in wasted postings);
* the full storm stays survivable
  (``bench_deadline_storm`` — the chaos scenario's attainment breakdown,
  with every admitted query reaching an explicit terminal state).
"""

import time

import numpy as np

from _harness import run_footprint, scheduler_work
from repro.core.latency import mturk_car_latency
from repro.crowd.multibackend import HedgeConfig, backend_preset_by_name
from repro.obs.metrics import get_registry
from repro.service import (
    DEADLINE_OUTCOMES,
    MaxScheduler,
    ServiceConfig,
    generate_workload,
    workload_by_name,
)

SEED = 0


def _scheduler(
    config=None, backends=None, workload="steady", seed=SEED, journal=None
):
    specs = generate_workload(workload_by_name(workload), seed=seed)
    return MaxScheduler(
        specs,
        mturk_car_latency(),
        seed=seed,
        config=config,
        backends=backends,
        journal=journal,
    )


def _run(config=None, backends=None, workload="steady", seed=SEED):
    get_registry().reset()
    scheduler = _scheduler(config, backends, workload, seed)
    start = time.perf_counter()
    report = scheduler.run()
    elapsed = time.perf_counter() - start
    return report, scheduler, elapsed


def _p99(report):
    return float(np.percentile([r.latency for r in report.results], 99))


def bench_deadline_off_overhead(benchmark):
    """Deadline-capable but idle must cost nothing and change nothing."""

    def compare():
        # Min-of-reps: the workload is deterministic, so scheduler noise
        # is strictly additive and min estimates the true cost.
        plain_times, armed_times = [], []
        for _ in range(7):
            _, _, dt_plain = _run()
            _, _, dt_armed = _run(config=ServiceConfig())
            plain_times.append(dt_plain)
            armed_times.append(dt_armed)
        return min(plain_times), min(armed_times)

    plain, armed = benchmark.pedantic(compare, rounds=1, iterations=1)
    report_plain, scheduler, _ = _run()
    work_plain = scheduler_work(scheduler)
    report_armed, scheduler, _ = _run(config=ServiceConfig())
    work_armed = scheduler_work(scheduler)
    ratio = armed / plain
    print()
    print("-- deadline-off overhead / steady --")
    print(f"plain: {plain:.3f} s   deadline-capable: {armed:.3f} s   "
          f"ratio: {ratio:.3f}")
    # The hedge-off / deadline-off path is the PR-8 path, bit for bit.
    assert report_armed == report_plain
    # Same crowd work and RNG streams: a deterministic check beside the
    # noisy wall-clock gate.
    assert work_armed == work_plain
    # Same events and the same journal, byte for byte.
    assert run_footprint(lambda j: _scheduler(journal=j)) == run_footprint(
        lambda j: _scheduler(ServiceConfig(), journal=j)
    )
    assert ratio <= 1.02


def bench_hedged_tail_p99(benchmark):
    """Mirroring predicted-slow rounds must buy p99 on a flaky fleet."""

    def compare():
        unhedged, _, _ = _run(
            config=ServiceConfig(routing="least-loaded"),
            backends=backend_preset_by_name("outage-trio"),
            seed=7,
        )
        hedged, scheduler, _ = _run(
            config=ServiceConfig(
                routing="least-loaded",
                hedge=HedgeConfig(hedge_after=250.0),
            ),
            backends=backend_preset_by_name("outage-trio"),
            seed=7,
        )
        return unhedged, hedged, scheduler.router.hedge_summary()

    unhedged, hedged, summary = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    print()
    print("-- hedged tail latency / steady on outage-trio --")
    print(f"unhedged p99: {_p99(unhedged):>8.1f} s")
    print(f"hedged p99:   {_p99(hedged):>8.1f} s "
          f"({summary['hedges']} hedge(s), {summary['wins']} mirror "
          f"win(s), {summary['waste']} wasted posting(s))")
    # Hedging trades duplicate postings for tail latency; it must win
    # the tail and may never change an answer.
    assert _p99(hedged) < _p99(unhedged)
    assert hedged.accuracy == unhedged.accuracy
    assert summary["hedges"] > 0


def bench_deadline_storm(benchmark):
    """The chaos scenario end to end: nothing is ever silently lost."""
    from repro.chaos import build_scheduler, scenario_by_name

    scenario = scenario_by_name("deadline-storm")

    def storm():
        scheduler = build_scheduler(scenario)
        return scheduler.run(), scheduler

    report, scheduler = benchmark.pedantic(storm, rounds=1, iterations=1)
    attainment = report.deadline_attainment
    print()
    print(
        f"-- deadline-storm attainment / {scenario.n_queries} queries "
        "on outage-trio --"
    )
    print("   ".join(f"{k}: {v}" for k, v in attainment.items()))
    print(f"hedges: {scheduler.router.hedges}   "
          f"brownout transitions: {scheduler.brownout.transitions}")
    assert len(report.results) == scenario.n_queries
    assert all(
        r.deadline_outcome in DEADLINE_OUTCOMES for r in report.results
    )
    assert sum(attainment.values()) == scenario.n_queries
