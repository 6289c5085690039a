"""SLO engine and flight recorder benchmarks.

Two claims the observability layer has to back with numbers:

* the engine is free when disarmed and cheap when armed
  (``bench_slo_off_overhead`` — an unarmed run must be bit-identical to
  a config-free run, and an *armed* run must change nothing but the
  health stamp and stay within 2% wall-clock);
* an alert storm stays deterministic end to end
  (``bench_alert_storm`` — the chaos scenario fires and resolves
  alerts, and a second run reproduces the exact transition sequence).
"""

import dataclasses
import time

from _harness import run_footprint, scheduler_work
from repro.core.latency import mturk_car_latency
from repro.obs.metrics import get_registry
from repro.obs.slo import default_slo_config
from repro.service import (
    MaxScheduler,
    ServiceConfig,
    generate_workload,
    workload_by_name,
)

SEED = 0


def _scheduler(config=None, workload="steady", seed=SEED, journal=None):
    specs = generate_workload(workload_by_name(workload), seed=seed)
    return MaxScheduler(
        specs, mturk_car_latency(), seed=seed, config=config, journal=journal
    )


def _run(config=None, workload="steady", seed=SEED):
    get_registry().reset()
    scheduler = _scheduler(config, workload, seed)
    start = time.perf_counter()
    report = scheduler.run()
    elapsed = time.perf_counter() - start
    return report, scheduler, elapsed


def bench_slo_off_overhead(benchmark):
    """Armed observation must cost <= 2% and never steer the scheduler."""

    armed_config = ServiceConfig(slo=default_slo_config())

    def compare():
        # Min-of-reps: the workload is deterministic, so scheduler noise
        # is strictly additive and min estimates the true cost.  The
        # armed delta is ~1% on an 11-tick run, so this takes more reps
        # than the other overhead benches to beat container jitter.
        plain_times, armed_times = [], []
        for _ in range(15):
            _, _, dt_plain = _run()
            _, _, dt_armed = _run(config=armed_config)
            plain_times.append(dt_plain)
            armed_times.append(dt_armed)
        return min(plain_times), min(armed_times)

    plain, armed = benchmark.pedantic(compare, rounds=1, iterations=1)
    report_plain, scheduler, _ = _run()
    work_plain = scheduler_work(scheduler)
    report_unarmed, scheduler, _ = _run(config=ServiceConfig())
    work_unarmed = scheduler_work(scheduler)
    report_armed, scheduler, _ = _run(config=armed_config)
    work_armed = scheduler_work(scheduler)
    ratio = armed / plain
    print()
    print("-- slo-armed overhead / steady --")
    print(f"plain: {plain:.3f} s   slo-armed: {armed:.3f} s   "
          f"ratio: {ratio:.3f}")
    # Disarmed is the pre-SLO path bit for bit; armed may only add the
    # health stamp on the report, never a scheduling difference.
    assert report_unarmed == report_plain
    assert dataclasses.replace(report_armed, health=None) == report_plain
    assert report_armed.health is not None
    # Same crowd work and RNG streams: a deterministic check beside the
    # noisy wall-clock gate.
    assert work_unarmed == work_plain
    assert work_armed == work_plain
    # Same events and the same journal records.  The armed journal adds
    # the SLO config to its header, the engine state to each snapshot
    # and a health stamp to each tick record; every other record type is
    # byte for byte the plain run's.
    events_plain, journal_plain = run_footprint(lambda j: _scheduler(journal=j))
    events_armed, journal_armed = run_footprint(
        lambda j: _scheduler(armed_config, journal=j)
    )
    assert events_armed == events_plain
    assert {k: n for k, (n, _) in journal_armed.items()} == {
        k: n for k, (n, _) in journal_plain.items()
    }
    for kind in ("route", "results", "complete"):
        assert journal_armed[kind] == journal_plain[kind]
    assert ratio <= 1.02


def bench_alert_storm(benchmark):
    """The alert storm fires, resolves and replays deterministically."""
    from repro.chaos import build_scheduler, scenario_by_name

    def storm():
        scheduler = build_scheduler(scenario_by_name("alert-storm"))
        return scheduler.run(), scheduler

    report, scheduler = benchmark.pedantic(storm, rounds=1, iterations=1)
    engine = scheduler.slo
    print()
    print("-- alert-storm / 36 queries on outage-trio --")
    print(f"health: {engine.health().describe()}   "
          f"fired: {engine.fired_total}   resolved: {engine.resolved_total}")
    assert engine.fired_total > 0
    assert engine.resolved_total > 0
    assert report.health == engine.health()
    # Same seeds, same storm: the transition history is reproducible.
    replay, replayed = storm()
    assert replayed.slo.state_dict() == engine.state_dict()
    assert replay == report
