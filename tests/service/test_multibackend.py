"""Scheduler-level multi-backend federation: identity, failover, recovery.

The three load-bearing contracts of the routing layer:

* a **solo fleet is a fleet** — a single-platform run is a one-backend
  fleet that journals route records and emits backend spans exactly like
  a three-backend one (its report, trace and journal are pinned by
  ``tests/integration/test_service_golden.py``);
* **failover is real** — with one backend of a three-backend fleet in a
  sustained outage, every admitted query still completes, no questions
  are assigned to an open-breaker backend, and per-backend capacity is
  honoured in every routed round (hypothesis hunts over victim/seed);
* **recovery is exact** — a crashed multi-backend run replays the very
  same routing decisions and produces a bit-identical report.
"""

import dataclasses
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.latency import LinearLatency, mturk_car_latency
from repro.crowd.breaker import BreakerState, CircuitBreakerConfig
from repro.crowd.faults import FaultProfile, fault_profile_by_name
from repro.crowd.multibackend import (
    PROBE_QUESTIONS,
    SOLO_BACKEND_NAME,
    BackendSpec,
    backend_preset_by_name,
)
from repro.errors import InvalidParameterError
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.service import (
    MaxScheduler,
    QueryState,
    SchedulerJournal,
    ServiceConfig,
    generate_workload,
    read_journal,
    recover_scheduler,
    samples_from_journal,
    workload_by_name,
)


def _specs(workload="smoke", seed=7):
    return generate_workload(workload_by_name(workload), seed=seed)


def _scheduler(backends=None, routing="latency", workload="smoke", seed=7,
               **kwargs):
    return MaxScheduler(
        _specs(workload=workload, seed=seed),
        mturk_car_latency(),
        seed=seed,
        config=ServiceConfig(routing=routing),
        backends=backends,
        **kwargs,
    )


def _route_records(path):
    """Journaled route payloads, deduplicated by tick (last write wins).

    A recovered run re-journals the ticks between the last snapshot and
    the crash point; the decisions must be identical, so keying by tick
    keeps exactly one record per routed round.
    """
    by_tick = {}
    for record in read_journal(path).records:
        if record["record"] == "route":
            by_tick[record["payload"]["tick"]] = record["payload"]
    return [by_tick[tick] for tick in sorted(by_tick)]


class TestConstruction:
    def test_backends_exclude_legacy_fault_arguments(self):
        fleet = backend_preset_by_name("trio")
        with pytest.raises(InvalidParameterError):
            _scheduler(
                backends=fleet,
                fault_profile=fault_profile_by_name("outages"),
            )
        with pytest.raises(InvalidParameterError):
            _scheduler(
                backends=fleet,
                breaker_config=CircuitBreakerConfig(),
            )

    def test_unknown_routing_policy_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(routing="psychic")

    def test_router_property(self):
        (solo,) = _scheduler().router.backends
        assert solo.name == SOLO_BACKEND_NAME
        assert solo.spec.latency == mturk_car_latency()
        scheduler = _scheduler(backends=backend_preset_by_name("trio"))
        assert [b.name for b in scheduler.router.backends] == [
            "fast", "balanced", "cheap",
        ]


class TestSoloIsAFleet:
    """A one-backend fleet routes, journals and traces like any fleet."""

    @pytest.mark.parametrize("preset", ["solo", "trio"])
    def test_routes_and_spans_per_routed_tick(self, tmp_path, preset):
        path = tmp_path / f"{preset}.jsonl"
        tracer = RecordingTracer(clock=lambda: 0.0)
        with use_tracer(tracer):
            with SchedulerJournal.create(path) as journal:
                _scheduler(
                    backends=backend_preset_by_name(preset), journal=journal
                ).run()
        routes = _route_records(path)
        # A tick sample is numbered after its tick ran; a route record by
        # the tick counter before it.  Every tick that did not defer routed.
        routed_ticks = [
            sample.tick - 1
            for sample in samples_from_journal(path)
            if not sample.deferred
        ]
        assert routed_ticks
        assert [p["tick"] for p in routes] == routed_ticks

        opened = [
            r.event for r in tracer.records if r.event.kind == "SpanOpened"
        ]
        backend_spans = [s for s in opened if s.name == "backend"]
        posted_sub_batches = sum(
            1 for p in routes for n in p["assignments"].values() if n
        )
        assert len(backend_spans) == posted_sub_batches
        for span in backend_spans:
            assert span.span_id.startswith(span.parent_id + "/")
        backend_ids = {s.span_id for s in backend_spans}
        attempts = [s for s in opened if s.name == "attempt"]
        assert attempts
        assert all(s.parent_id in backend_ids for s in attempts)


class TestMultiBackendRuns:
    def test_trio_completes_with_route_records_and_backend_spans(
        self, tmp_path
    ):
        path = tmp_path / "trio.jsonl"
        tracer = RecordingTracer(clock=lambda: 0.0)
        with use_tracer(tracer):
            with SchedulerJournal.create(path) as journal:
                scheduler = _scheduler(
                    backends=backend_preset_by_name("trio"), journal=journal
                )
                report = scheduler.run()
        assert all(r.state is QueryState.COMPLETED for r in report.results)

        routes = _route_records(path)
        assert len(routes) >= 1
        for payload in routes:
            assert set(payload["assignments"]) == {"fast", "balanced", "cheap"}
            assert set(payload["states"]) == {"fast", "balanced", "cheap"}
        routed = sum(
            sum(p["assignments"].values()) for p in routes
        )
        assert routed == report.questions_posted

        spans = [
            r.event
            for r in tracer.records
            if r.event.kind == "SpanOpened" and r.event.name == "backend"
        ]
        assert spans
        for span in spans:
            assert span.parent_id is not None
            assert span.span_id.startswith(span.parent_id + "/")

        summary = {row["name"]: row for row in scheduler.router.summary()}
        assert (
            sum(row["questions_posted"] for row in summary.values())
            == report.questions_posted
        )

    def test_fleet_accounting_reaches_the_registry(self):
        from repro.obs import get_registry
        from repro.obs.metrics import labeled_name

        get_registry().reset()
        scheduler = _scheduler(backends=backend_preset_by_name("trio"))
        scheduler.run()
        registry = get_registry()
        for row in scheduler.router.summary():
            posted = registry.counter(
                labeled_name(
                    "backend.questions_posted", {"backend": row["name"]}
                )
            )
            assert posted.value == row["questions_posted"]

    def test_capacity_starved_fleet_still_completes(self):
        tight = [
            dataclasses.replace(spec, capacity=20)
            for spec in backend_preset_by_name("trio")
        ]
        baseline = _scheduler(backends=backend_preset_by_name("trio")).run()
        report = _scheduler(backends=tight).run()
        # Capacity deferral chunks the rounds but must not burn retry
        # attempts or degrade anything.
        assert all(r.state is QueryState.COMPLETED for r in report.results)
        assert len(report.completed) == len(baseline.completed)
        assert report.questions_posted == baseline.questions_posted

    def test_weighted_price_spends_no_more_than_latency(self):
        costs = {}
        for policy in ("latency", "weighted-price"):
            scheduler = _scheduler(
                backends=backend_preset_by_name("trio"), routing=policy
            )
            scheduler.run()
            costs[policy] = sum(
                row["cost"] for row in scheduler.router.summary()
            )
        assert costs["weighted-price"] <= costs["latency"]


class TestProbeOutage:
    def test_swallowed_probe_charges_only_posted_queries(self):
        """A total outage charges only the queries the crowd saw.

        One backend is OPEN, the other HALF_OPEN, and both sit inside a
        sustained outage: the half-open probe quota carries a few
        questions, the outage swallows them, and every packed query left
        outside the probe must keep its round attempts.
        """
        breaker = CircuitBreakerConfig(
            failure_threshold=2, cooldown_seconds=3000.0
        )
        sustained = fault_profile_by_name("sustained")
        fleet = [
            BackendSpec(
                name=name,
                latency=mturk_car_latency(),
                fault_profile=sustained,
                breaker=breaker,
            )
            for name in ("down", "probing")
        ]
        scheduler = _scheduler(backends=fleet, workload="burst")
        down, probing = scheduler.router.backends
        down.breaker.state = BreakerState.OPEN
        down.breaker.opened_at = 0.0
        probing.breaker.state = BreakerState.HALF_OPEN

        outcomes = []
        post_round = scheduler.router.post_round

        def recording_post_round(*args, **kwargs):
            outcomes.append(post_round(*args, **kwargs))
            return outcomes[-1]

        scheduler.router.post_round = recording_post_round
        while scheduler.ticks == 0:
            assert scheduler.step()
        (outcome,) = outcomes
        assert outcome.total_outage
        assert outcome.decision.assignments == {
            "down": 0, "probing": PROBE_QUESTIONS,
        }
        unposted = set(map(tuple, outcome.unposted.tolist()))
        spared = 0
        for query in scheduler._active:
            rows = query.unanswered + query.offset
            posted = set(map(tuple, rows.tolist())) - unposted
            assert query.round_attempts == (1 if posted else 0)
            spared += not posted
        assert spared


class TestMultiBackendRecovery:
    """The journal must replay routing decisions bit-identically."""

    @pytest.mark.parametrize("crash_after", [1, 3])
    def test_recovered_run_matches_report_and_routes(
        self, tmp_path, crash_after
    ):
        fleet = backend_preset_by_name("outage-trio")
        baseline_path = tmp_path / "baseline.jsonl"
        with SchedulerJournal.create(baseline_path) as journal:
            baseline = _scheduler(
                backends=fleet, workload="steady", seed=3, journal=journal
            ).run()

        crash_path = tmp_path / "crash.jsonl"
        journal = SchedulerJournal.create(crash_path)
        victim = _scheduler(
            backends=fleet, workload="steady", seed=3, journal=journal
        )
        steps = 0
        while steps < crash_after and victim.step():
            steps += 1
        journal.close()

        recovered = recover_scheduler(crash_path)
        assert recovered.router is not None
        report = recovered.run()
        recovered.journal.close()
        assert report == baseline
        assert _route_records(crash_path) == _route_records(baseline_path)

    def test_header_restores_the_exact_fleet(self, tmp_path):
        fleet = backend_preset_by_name("outage-trio")
        path = tmp_path / "fleet.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(backends=fleet, journal=journal)
        victim.step()
        journal.close()
        recovered = recover_scheduler(path, resume_journal=False)
        assert [b.spec for b in recovered.router.backends] == fleet

    def test_snapshot_fleet_mismatch_is_corruption(self, tmp_path):
        from repro.errors import JournalCorruptError
        from repro.service import restore_scheduler_state

        path = tmp_path / "mismatch.jsonl"
        journal = SchedulerJournal.create(path)
        victim = _scheduler(
            backends=backend_preset_by_name("trio"), journal=journal
        )
        victim.step()
        journal.close()
        contents = read_journal(path)
        impostor = _scheduler(backends=backend_preset_by_name("duo"))
        snapshot = dict(contents.last_snapshot)
        with pytest.raises(JournalCorruptError):
            restore_scheduler_state(impostor, snapshot)


def _failover_fleet(victim: int):
    """Three capacity-bounded backends; *victim* is dark for the whole run.

    Capacities are deliberately tight (a round outgrows any one backend)
    so every backend — whichever one is the victim — carries real load
    before and after the breaker trips.
    """
    breaker = CircuitBreakerConfig(
        failure_threshold=1, cooldown_seconds=10**8, probe_successes=1
    )
    specs = [
        BackendSpec(
            name="alpha",
            latency=LinearLatency(delta=150.0, alpha=0.20),
            capacity=24,
            price_per_question=0.05,
            breaker=breaker,
        ),
        BackendSpec(
            name="beta",
            latency=mturk_car_latency(),
            capacity=24,
            price_per_question=0.02,
            breaker=breaker,
        ),
        BackendSpec(
            name="gamma",
            latency=LinearLatency(delta=320.0, alpha=0.10),
            capacity=24,
            price_per_question=0.005,
            breaker=breaker,
        ),
    ]
    specs[victim] = dataclasses.replace(
        specs[victim],
        fault_profile=FaultProfile(
            outage_window=(0.0, 10**9),
            outage_detection_time=120.0,
        ),
    )
    return specs


class TestFailoverProperty:
    """ISSUE acceptance: sustained outage of any one backend is absorbed."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        victim=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_sustained_single_backend_outage_is_absorbed(self, victim, seed):
        fleet = _failover_fleet(victim)
        capacities = {spec.name: spec.capacity for spec in fleet}
        victim_name = fleet[victim].name
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "failover.jsonl"
            with SchedulerJournal.create(path) as journal:
                scheduler = MaxScheduler(
                    _specs(seed=seed),
                    mturk_car_latency(),
                    seed=seed,
                    config=ServiceConfig(),
                    backends=fleet,
                    journal=journal,
                )
                report = scheduler.run()
            routes = _route_records(path)

        # Every admitted query completes despite the dead backend.
        assert report.results, "workload must admit at least one query"
        for result in report.results:
            assert result.state is QueryState.COMPLETED

        assert routes, "a three-backend run must journal route records"
        open_seen = False
        for payload in routes:
            for name, assigned in payload["assignments"].items():
                # Capacity is respected in every single routed round.
                assert assigned <= capacities[name]
                # No questions ride on an open circuit.
                if payload["states"][name] == "open":
                    assert assigned == 0
            open_seen = open_seen or payload["states"][victim_name] == "open"
        # The victim's breaker actually tripped (the scenario is live).
        assert open_seen
        assert scheduler.router.backend(victim_name).outages >= 1
