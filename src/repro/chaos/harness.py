"""Crash-injection harness: make the recovery guarantee executable.

The journal's contract — *a run killed at any tick boundary and recovered
produces a bit-identical report* — is exactly the kind of claim that rots
as a comment.  This harness turns it into a property that runs in CI:

1. run the scenario once, uninterrupted and unjournaled → baseline report;
2. for each crash point ``k``: run a journaled scheduler for ``k`` steps,
   abandon it (the "kill"), :func:`~repro.service.journal.recover_scheduler`
   from the journal, drive the recovered scheduler to completion;
3. assert the recovered report ``==`` the baseline (dataclass equality —
   every field of every per-query result), that the recovered
   scheduler's final :func:`~repro.service.journal.snapshot_scheduler`
   state equals the baseline's (every RNG stream, the plan cache, the
   counters — draws that leave the report unchanged still show there),
   that the results folded from the journal's ``result`` records equal
   the recovered report's, and that the SLO flight ring folded from its
   ``tick`` and ``alert`` records equals the recovered scheduler's live
   ring.

Crash points can be explicit (``crash_points``), seeded-random
(``n_crashes``) or exhaustive (``sweep=True``, one kill per step boundary
— the ``slow``-marked acceptance test).
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.latency import LatencyFunction, mturk_car_latency
from repro.crowd.breaker import CircuitBreakerConfig
from repro.crowd.faults import FaultProfile, RetryPolicy, fault_profile_by_name
from repro.crowd.multibackend import (
    BackendSpec,
    backend_preset_by_name,
    resolve_fleet,
)
from repro.errors import InvalidParameterError
from repro.service.journal import (
    SchedulerJournal,
    journal_results,
    read_journal,
    recover_scheduler,
    snapshot_scheduler,
)
from repro.service.report import QueryResult, ServiceReport
from repro.service.scheduler import MaxScheduler, ServiceConfig
from repro.service.workload import generate_workload, workload_by_name


@dataclass(frozen=True)
class ChaosScenario:
    """One reproducible workload-under-faults setup to crash-test.

    Attributes:
        workload: named workload preset (see :mod:`repro.service.workload`).
        seed: master seed for workload generation and the scheduler.
        faults: named fault profile, or ``None`` for a clean platform.
        retry_policy: RWL retry policy (``None`` disables retries).
        n_queries: override the preset's query count (small = fast CI).
        config: scheduler tunables (``None`` = defaults).
        breaker: circuit-breaker configuration, if any.
        latency: planning latency model (``None`` = the paper's MTurk fit).
        snapshot_interval: journal snapshot cadence in ticks.
        backends: federate the run across this fleet of
            :class:`~repro.crowd.multibackend.BackendSpec` s instead of one
            shared platform (mutually exclusive with ``faults``/``breaker``,
            which are sugar for the solo fleet's one spec; per-backend
            fault profiles and breakers live in the specs).
    """

    workload: str = "smoke"
    seed: int = 0
    faults: Optional[str] = None
    retry_policy: Optional[RetryPolicy] = None
    n_queries: Optional[int] = None
    config: Optional[ServiceConfig] = None
    breaker: Optional[CircuitBreakerConfig] = None
    latency: Optional[LatencyFunction] = None
    snapshot_interval: int = 1
    backends: Optional[Tuple[BackendSpec, ...]] = None

    def __post_init__(self) -> None:
        resolve_fleet(
            self.backends,
            latency=self.planning_latency(),
            fault_profile=self.fault_profile(),
            breaker_config=self.breaker,
        )

    def planning_latency(self) -> LatencyFunction:
        """The planning latency model (the paper's MTurk fit by default)."""
        return self.latency if self.latency is not None else mturk_car_latency()

    def fault_profile(self) -> Optional[FaultProfile]:
        """The named fault profile resolved, or ``None``."""
        return (
            fault_profile_by_name(self.faults)
            if self.faults is not None
            else None
        )


@dataclass(frozen=True)
class CrashOutcome:
    """Result of one kill/recover/compare cycle.

    Attributes:
        crash_after: scheduler steps executed before the kill.
        crashed_at_tick: the victim's tick counter at the kill.
        recovered_at_tick: the tick the journal restored the state to.
        equivalent: recovered report and final scheduler state ==
            the uninterrupted baseline's.
        mismatch: human-readable first difference (``None`` when equal).
    """

    crash_after: int
    crashed_at_tick: int
    recovered_at_tick: int
    equivalent: bool
    mismatch: Optional[str] = None


@dataclass(frozen=True)
class ChaosReport:
    """Aggregated outcome of a chaos run against one scenario."""

    scenario: ChaosScenario
    baseline: ServiceReport
    outcomes: Tuple[CrashOutcome, ...] = field(default_factory=tuple)

    @property
    def all_equivalent(self) -> bool:
        """Whether every crash point recovered to a bit-identical run."""
        return all(outcome.equivalent for outcome in self.outcomes)

    @property
    def n_failures(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.equivalent)

    def render(self) -> str:
        """Human-readable summary for the CLI."""
        backends = (
            ",".join(spec.name for spec in self.scenario.backends)
            if self.scenario.backends is not None
            else "none"
        )
        lines = [
            f"chaos: workload={self.scenario.workload} "
            f"seed={self.scenario.seed} "
            f"faults={self.scenario.faults or 'none'} "
            f"backends={backends} "
            f"snapshot_interval={self.scenario.snapshot_interval}",
            f"baseline: {self.baseline.ticks} ticks, "
            f"makespan {self.baseline.makespan:.1f} s, "
            f"{len(self.baseline.results)} queries",
            f"crash points: {len(self.outcomes)}",
        ]
        for outcome in self.outcomes:
            status = "OK " if outcome.equivalent else "FAIL"
            line = (
                f"  [{status}] kill after step {outcome.crash_after:>4} "
                f"(tick {outcome.crashed_at_tick}) -> recovered at tick "
                f"{outcome.recovered_at_tick}"
            )
            if outcome.mismatch:
                line += f": {outcome.mismatch}"
            lines.append(line)
        verdict = (
            "all recoveries bit-identical"
            if self.all_equivalent
            else f"{self.n_failures} of {len(self.outcomes)} recoveries diverged"
        )
        lines.append(verdict)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Scenario plumbing
# ----------------------------------------------------------------------
def build_scheduler(
    scenario: ChaosScenario, journal: Optional[SchedulerJournal] = None
) -> MaxScheduler:
    """Construct the scenario's scheduler (optionally journaled)."""
    specs = generate_workload(
        workload_by_name(scenario.workload),
        seed=scenario.seed,
        n_queries=scenario.n_queries,
    )
    return MaxScheduler(
        specs,
        scenario.planning_latency(),
        seed=scenario.seed,
        config=scenario.config,
        fault_profile=scenario.fault_profile(),
        retry_policy=scenario.retry_policy,
        breaker_config=scenario.breaker,
        journal=journal,
        backends=(
            list(scenario.backends) if scenario.backends is not None else None
        ),
    )


# ----------------------------------------------------------------------
# Named scenarios (``tdp-repro chaos --scenario NAME``)
# ----------------------------------------------------------------------
def _multibackend_outage() -> ChaosScenario:
    """A three-backend fleet whose default route goes dark mid-run.

    The ``outage-trio`` preset arms every backend's circuit breaker and
    gives the latency-preferred ``balanced`` backend a sustained outage
    window: crash points land before, during and after the failover, so
    recovery must reproduce the router's reroute decisions exactly.
    """
    return ChaosScenario(
        workload="steady",
        seed=3,
        backends=tuple(backend_preset_by_name("outage-trio")),
    )


def _deadline_storm() -> ChaosScenario:
    """A deadline-carrying burst on an outage-prone fleet, fully armed.

    Every robustness feature is on at once: enforced per-query deadlines
    (tight enough that replanning, proactive degradation and late
    expiries all occur), hedged posting against predicted-slow backends,
    and the brownout controller shedding low-priority admissions under
    the queue-wait spike the outage causes.  Crash recovery must replay
    every one of those decisions — no admitted query may lose its
    explicit terminal state.
    """
    from repro.crowd.multibackend import HedgeConfig
    from repro.service.deadline import BrownoutConfig

    return ChaosScenario(
        workload="steady",
        seed=7,
        # Enough queries, a deadline and a hedge trigger that give >= 2 of
        # every deadline outcome, hedges and brownout transitions at seed 7
        # and at each of seeds 1-40.
        n_queries=140,
        backends=tuple(backend_preset_by_name("outage-trio")),
        config=ServiceConfig(
            policy="priority",
            # uHF plans three uniform rounds, so deadline replanning has
            # future rounds to merge (tDP's two-round optima leave none).
            allocator="uHF",
            max_active_queries=6,
            max_queue_depth=10,
            # least-loaded keeps slack on the fast backend, which is what
            # makes it a viable hedge mirror when `cheap` predicts slow.
            routing="least-loaded",
            default_deadline=1500.0,
            hedge=HedgeConfig(min_samples=4, window=32, factor=0.6),
            brownout=BrownoutConfig(queue_wait_threshold=1000.0),
        ),
    )


def _alert_storm() -> ChaosScenario:
    """The deadline storm with the SLO engine armed and twitchy.

    Rule windows and thresholds are tightened so alerts both fire *and*
    resolve within the run: the deadline burn-rate alert trips while the
    outage wrecks attainment, the brownout/hedge-waste thresholds trip
    with their drivers, and the thresholds clear as the queue drains.
    Crash recovery must replay the exact AlertFired/AlertResolved
    sequence — the journal's alert records are the assertion surface.
    """
    from repro.crowd.multibackend import HedgeConfig
    from repro.obs.slo import (
        BurnRateRule,
        SLOConfig,
        SLOTarget,
        ThresholdRule,
    )
    from repro.service.deadline import BrownoutConfig

    return ChaosScenario(
        workload="steady",
        seed=7,
        n_queries=36,
        backends=tuple(backend_preset_by_name("outage-trio")),
        config=ServiceConfig(
            policy="priority",
            allocator="uHF",
            max_active_queries=6,
            max_queue_depth=10,
            routing="least-loaded",
            default_deadline=1800.0,
            hedge=HedgeConfig(min_samples=4, window=32, factor=0.8),
            brownout=BrownoutConfig(queue_wait_threshold=1000.0),
            slo=SLOConfig(
                targets=(
                    SLOTarget(name="deadline-attainment",
                              objective="deadline",
                              target=0.90, window=48),
                    SLOTarget(name="query-success", objective="queries",
                              target=0.80, window=48),
                ),
                burn_rates=(
                    BurnRateRule(name="deadline-burn",
                                 slo="deadline-attainment",
                                 fast_window=4, slow_window=12,
                                 burn_threshold=1.0,
                                 severity="critical"),
                ),
                thresholds=(
                    ThresholdRule(name="brownout-active",
                                  signal="brownout_level",
                                  threshold=1.0, severity="warning"),
                    # The brownout's own queue-wait threshold: the alert
                    # fires with the brownout and clears once the queue
                    # has drained.
                    ThresholdRule(name="queue-wait-high",
                                  signal="queue_wait_p95",
                                  threshold=1000.0, severity="warning"),
                    ThresholdRule(name="hedge-waste",
                                  signal="hedge_waste",
                                  threshold=3.0, severity="warning"),
                ),
                ring=64,
            ),
        ),
    )


_SCENARIOS = {
    "multibackend-outage": _multibackend_outage,
    "deadline-storm": _deadline_storm,
    "alert-storm": _alert_storm,
}


def available_scenarios() -> List[str]:
    """Names accepted by :func:`scenario_by_name` (``--scenario``)."""
    return sorted(_SCENARIOS)


def scenario_by_name(name: str) -> ChaosScenario:
    """Instantiate a named chaos scenario.

    Raises:
        InvalidParameterError: for unknown names (the message lists the
            available ones).
    """
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown chaos scenario {name!r}; available: "
            f"{', '.join(available_scenarios())}"
        ) from None
    return factory()


def uninterrupted_report(scenario: ChaosScenario) -> ServiceReport:
    """The baseline: the scenario run to completion without a journal."""
    return uninterrupted_run(scenario)[0]


def uninterrupted_run(
    scenario: ChaosScenario,
) -> Tuple[ServiceReport, Dict[str, Any]]:
    """The baseline report and the drained scheduler's final state."""
    scheduler = build_scheduler(scenario)
    report = scheduler.run()
    return report, snapshot_scheduler(scheduler)


def total_steps(scenario: ChaosScenario) -> int:
    """How many scheduler steps the scenario takes to drain."""
    scheduler = build_scheduler(scenario)
    steps = 0
    while scheduler.step():
        steps += 1
    return steps


def describe_mismatch(
    recovered: ServiceReport, baseline: ServiceReport
) -> Optional[str]:
    """First human-readable difference between two reports, or ``None``.

    Names the first differing :class:`ServiceReport` field, or, inside
    ``results``, the first differing :class:`QueryResult` field.
    """
    if recovered == baseline:
        return None
    for fld in dataclasses.fields(ServiceReport):
        a, b = getattr(recovered, fld.name), getattr(baseline, fld.name)
        if a == b:
            continue
        if fld.name != "results":
            return f"{fld.name}: {a!r} != baseline {b!r}"
        if len(a) != len(b):
            return f"result count: {len(a)} != baseline {len(b)}"
        for got, want in zip(a, b):
            for query_field in dataclasses.fields(QueryResult):
                x = getattr(got, query_field.name)
                y = getattr(want, query_field.name)
                if x != y:
                    return (
                        f"query {got.spec.query_id} {query_field.name}: "
                        f"{x!r} != baseline {y!r}"
                    )
    return "reports differ"


def describe_state_mismatch(
    recovered: Dict[str, Any], baseline: Dict[str, Any]
) -> Optional[str]:
    """First differing top-level slot of two scheduler snapshots, or
    ``None`` when they are equal."""
    if recovered == baseline:
        return None
    for key in sorted(set(recovered) | set(baseline)):
        if recovered.get(key) != baseline.get(key):
            return f"final scheduler state differs in {key!r}"
    return "final scheduler states differ"


# ----------------------------------------------------------------------
# Killing and recovering
# ----------------------------------------------------------------------
def run_with_crash(
    scenario: ChaosScenario,
    crash_after: int,
    journal_path: Union[str, Path],
    baseline: Optional[ServiceReport] = None,
    baseline_state: Optional[Dict[str, Any]] = None,
) -> CrashOutcome:
    """Kill a journaled run after *crash_after* steps, recover, compare.

    The kill is simulated by abandoning the scheduler object between
    steps — exactly a process death at a tick boundary, since the journal
    flushes every record before :meth:`~MaxScheduler.step` returns.
    *baseline* and *baseline_state* are the uninterrupted run's report
    and final state (:func:`uninterrupted_run`); either one left out is
    computed.
    """
    if crash_after < 0:
        raise InvalidParameterError(
            f"crash_after must be >= 0, got {crash_after}"
        )
    if baseline is None or baseline_state is None:
        report, state = uninterrupted_run(scenario)
        baseline = report if baseline is None else baseline
        baseline_state = state if baseline_state is None else baseline_state
    journal = SchedulerJournal.create(
        journal_path, snapshot_interval=scenario.snapshot_interval
    )
    victim = build_scheduler(scenario, journal=journal)
    steps = 0
    while steps < crash_after and victim.step():
        steps += 1
    crashed_at_tick = victim.ticks
    # The kill: drop the object; close the handle so the sweep does not
    # leak file descriptors (every record is already flushed, so closing
    # changes nothing the recovery can observe).
    journal.close()
    del victim

    recovered = recover_scheduler(journal_path)
    recovered_at_tick = recovered.ticks
    report = recovered.run()
    if recovered.journal is not None:
        recovered.journal.close()
    mismatch = describe_mismatch(report, baseline) or describe_state_mismatch(
        snapshot_scheduler(recovered), baseline_state
    )
    if mismatch is None and journal_results(journal_path) != report.results:
        mismatch = "journal results differ from the recovered report's"
    if mismatch is None and recovered.flight is not None:
        ring = read_journal(journal_path).last_snapshot["flight"]
        if ring[-recovered.flight.capacity:] != recovered.flight.entries():
            mismatch = "flight ring rebuilt from the journal differs"
    return CrashOutcome(
        crash_after=steps,
        crashed_at_tick=crashed_at_tick,
        recovered_at_tick=recovered_at_tick,
        equivalent=mismatch is None,
        mismatch=mismatch,
    )


def seeded_crash_points(
    scenario: ChaosScenario, n_crashes: int, n_steps: Optional[int] = None
) -> List[int]:
    """*n_crashes* deterministic pseudo-random crash points for a scenario.

    Drawn from a dedicated stream ``(seed, 99)`` over ``[0, total_steps]``
    (inclusive on both ends: killing before the first step and after the
    last are both legal), deduplicated and sorted.
    """
    if n_crashes < 1:
        raise InvalidParameterError(f"n_crashes must be >= 1, got {n_crashes}")
    if n_steps is None:
        n_steps = total_steps(scenario)
    rng = np.random.default_rng((scenario.seed, 99))
    points = sorted(
        {int(p) for p in rng.integers(0, n_steps + 1, size=n_crashes)}
    )
    return points


def run_chaos(
    scenario: ChaosScenario,
    *,
    crash_points: Optional[Sequence[int]] = None,
    n_crashes: Optional[int] = None,
    sweep: bool = False,
    journal_dir: Optional[Union[str, Path]] = None,
) -> ChaosReport:
    """Run the full kill/recover/compare protocol against a scenario.

    Exactly one of *crash_points*, *n_crashes* or *sweep* selects the
    crash schedule:

    * ``crash_points`` — explicit step indices;
    * ``n_crashes`` — seeded-random points via :func:`seeded_crash_points`;
    * ``sweep=True`` — every step boundary from 0 to the total step
      count (the exhaustive acceptance property; mark tests ``slow``).
    """
    chosen = sum(
        1 for flag in (crash_points is not None, n_crashes is not None, sweep)
        if flag
    )
    if chosen != 1:
        raise InvalidParameterError(
            "pass exactly one of crash_points, n_crashes or sweep=True"
        )
    baseline, baseline_state = uninterrupted_run(scenario)
    if sweep:
        points: Sequence[int] = range(total_steps(scenario) + 1)
    elif n_crashes is not None:
        points = seeded_crash_points(scenario, n_crashes)
    else:
        points = list(crash_points)
    if journal_dir is None:
        journal_dir = tempfile.mkdtemp(prefix="tdp-chaos-")
    journal_dir = Path(journal_dir)
    journal_dir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    for point in points:
        outcome = run_with_crash(
            scenario,
            crash_after=point,
            journal_path=journal_dir / f"crash-{point}.jsonl",
            baseline=baseline,
            baseline_state=baseline_state,
        )
        outcomes.append(outcome)
    return ChaosReport(
        scenario=scenario, baseline=baseline, outcomes=tuple(outcomes)
    )
