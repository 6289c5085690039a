"""Scheduler integration tests for the SLO engine and flight recorder.

The contracts under test:

* **zero overhead when disabled** — an SLO-less run is bit-identical to
  pre-SLO behaviour, and an armed engine never changes scheduling
  decisions (only observes them);
* **deterministic alerting** — the journal's alert records replay
  bit-identically through kill/recover at any tick boundary, the engine
  snapshot round-trips at every tick, and the flight ring rebuilt from
  the journal's tick and alert records equals the live ring;
* **surfacing** — tick samples, events, report, dashboard header and
  metrics all carry the health/alert state, identically live or
  replayed.
"""

import dataclasses

import pytest

from repro.chaos import (
    build_scheduler,
    run_with_crash,
    scenario_by_name,
)
from repro.core.latency import LinearLatency
from repro.crowd.multibackend import backend_preset_by_name
from repro.obs.dashboard import render_frame
from repro.obs.events import events_of
from repro.obs.metrics import get_registry
from repro.obs.slo import (
    BurnRateRule,
    SLOConfig,
    SLOEngine,
    SLOTarget,
    ThresholdRule,
    default_slo_config,
)
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.service import (
    MaxScheduler,
    QuerySpec,
    SchedulerJournal,
    ServiceConfig,
    alert_transitions_from_records,
    generate_workload,
    read_journal,
    recover_scheduler,
    samples_from_records,
    workload_by_name,
)

LATENCY = LinearLatency(239, 0.06)


def _run(config=None, seed=0, workload="smoke"):
    specs = generate_workload(workload_by_name(workload), seed=seed)
    scheduler = MaxScheduler(specs, LATENCY, seed=seed, config=config)
    return scheduler.run(), scheduler


def _stormy_slo(bundle_dir=None):
    """Rules tight enough to fire on a congested single-backend run."""
    return SLOConfig(
        targets=(
            SLOTarget(name="attain", objective="deadline",
                      target=0.90, window=40),
        ),
        burn_rates=(
            BurnRateRule(name="burn", slo="attain", fast_window=3,
                         slow_window=9, burn_threshold=1.0),
        ),
        thresholds=(
            ThresholdRule(name="queue-wait", signal="queue_wait_p95",
                          threshold=300.0),
        ),
        ring=32,
        bundle_dir=bundle_dir,
    )


def _congested_scheduler(slo, journal=None, n=14):
    config = ServiceConfig(
        policy="priority",
        max_active_queries=1,
        max_queue_depth=4,
        default_deadline=2000.0,
        slo=slo,
    )
    specs = [
        QuerySpec(query_id=i, n_elements=16, budget=80, priority=i % 2)
        for i in range(n)
    ]
    return MaxScheduler(specs, LATENCY, seed=0, config=config,
                        journal=journal)


class TestDisabledBitIdentity:
    def test_armed_engine_never_changes_scheduling(self):
        plain, _ = _run(workload="steady")
        armed, scheduler = _run(
            config=ServiceConfig(slo=default_slo_config()),
            workload="steady",
        )
        # The engine observes; it must not steer.  Everything except the
        # health stamp is bit-identical.
        assert dataclasses.replace(armed, health=None) == plain
        assert armed.health is not None

    def test_unarmed_samples_carry_no_health(self):
        _, scheduler = _run(workload="smoke")
        assert all(s.health == "" for s in scheduler.tick_history)
        assert all(s.alerts_active == 0 for s in scheduler.tick_history)

    def test_armed_samples_carry_health(self):
        _, scheduler = _run(
            config=ServiceConfig(slo=default_slo_config()),
            workload="smoke",
        )
        assert all(s.health != "" for s in scheduler.tick_history)

    def test_report_renders_health_only_when_armed(self):
        plain, _ = _run(workload="smoke")
        armed, _ = _run(
            config=ServiceConfig(slo=default_slo_config()),
            workload="smoke",
        )
        assert "health:" not in plain.render()
        assert "health:" in armed.render()


class TestAlertingEndToEnd:
    def test_alerts_fire_and_resolve_with_events_and_metrics(self):
        registry = get_registry()
        registry.reset()
        tracer = RecordingTracer()
        with use_tracer(tracer):
            scheduler = build_scheduler(scenario_by_name("alert-storm"))
            scheduler.run()
        assert scheduler.slo.fired_total > 0
        assert scheduler.slo.resolved_total > 0
        fired = events_of(tracer.records, "AlertFired")
        resolved = events_of(tracer.records, "AlertResolved")
        assert len(fired) == scheduler.slo.fired_total
        assert len(resolved) == scheduler.slo.resolved_total
        snapshot = registry.snapshot()
        assert snapshot["alerts.fired"]["value"] == scheduler.slo.fired_total
        assert (
            snapshot["alerts.resolved"]["value"]
            == scheduler.slo.resolved_total
        )
        # The tick stream carries the live alert state for the dashboard.
        assert any(s.alerts_active > 0 for s in scheduler.tick_history)
        assert any(s.health != "ok" for s in scheduler.tick_history)

    def test_bundle_written_when_alert_fires(self, tmp_path):
        from repro.obs.flight import validate_bundle

        bundles = tmp_path / "bundles"
        scheduler = _congested_scheduler(_stormy_slo(str(bundles)))
        scheduler.run()
        assert scheduler.slo.fired_total > 0
        written = sorted(p.name for p in bundles.iterdir())
        assert len(written) == scheduler.slo.fired_total
        for bundle in bundles.iterdir():
            manifest = validate_bundle(bundle)
            assert manifest["reason"].startswith("alert:")

    def test_dashboard_header_shows_health(self):
        scheduler = _congested_scheduler(_stormy_slo())
        scheduler.run()
        frame = render_frame(list(scheduler.tick_history))
        header = frame.splitlines()[0]
        assert "health=" in header
        assert "alerts=" in header
        # Unarmed samples keep the pre-SLO header, byte for byte.
        _, plain = _run(workload="smoke")
        plain_header = render_frame(list(plain.tick_history)).splitlines()[0]
        assert "health=" not in plain_header


class TestJournalRoundTrip:
    def test_engine_and_ring_state_round_trip_at_every_tick(self, tmp_path):
        # Drive a journaled run to completion (snapshot every tick),
        # keeping the live ring after every step; then for every snapshot
        # rebuild a scheduler and check the restored engine equals the
        # snapshot and the ring rebuilt from the log equals the live one.
        path = tmp_path / "run.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=1)
        scheduler = _congested_scheduler(
            dataclasses.replace(_stormy_slo(), ring=4), journal=journal
        )
        live_rings = {0: scheduler.flight.entries()}
        while scheduler.step():
            live_rings[scheduler.ticks] = scheduler.flight.entries()
        journal.complete(scheduler)
        journal.close()
        # The ring wrapped, and it held alerts as well as ticks.
        assert len(live_rings[scheduler.ticks]) == 4
        assert {"tick", "alert"} <= {
            entry["kind"] for ring in live_rings.values() for entry in ring
        }
        contents = read_journal(path)
        snapshots = [
            r["payload"] for r in contents.records
            if r["record"] == "snapshot"
        ]
        assert len(snapshots) > 2
        assert all("flight" not in snapshot for snapshot in snapshots)
        from repro.service.journal import (
            fold_results,
            restore_scheduler_state,
            scheduler_from_header,
        )

        for snapshot in snapshots:
            restored = scheduler_from_header(contents.header)
            restore_scheduler_state(
                restored, fold_results(contents.records, snapshot)
            )
            assert restored.slo.state_dict() == snapshot["slo"]
            assert (
                restored.flight.entries() == live_rings[snapshot["ticks"]]
            )

    def test_twice_recovered_ring_matches_the_uninterrupted_run(
        self, tmp_path
    ):
        # Sparse snapshots and two kills before the tick-10 snapshot:
        # ticks 6-7 sit in the log three times, and the rebuilt ring must
        # hold each of their samples and alerts once.
        scenario = scenario_by_name("alert-storm")
        clean = build_scheduler(scenario)
        clean.run()
        path = tmp_path / "crash.jsonl"
        scheduler = build_scheduler(
            scenario, journal=SchedulerJournal.create(path, snapshot_interval=5)
        )
        for _ in range(2):
            while scheduler.ticks < 7 and scheduler.step():
                pass
            scheduler.journal.close()
            scheduler = recover_scheduler(path)
            assert scheduler.ticks == 5
        scheduler.run()
        scheduler.journal.close()
        ticks = [
            r["payload"]["tick"] for r in read_journal(path).records
            if r["record"] == "tick"
        ]
        assert ticks.count(6) == ticks.count(7) == 3
        assert any(
            entry["kind"] == "alert" for entry in clean.flight.entries()
        )
        assert scheduler.flight.entries() == clean.flight.entries()
        rebuilt = recover_scheduler(path, resume_journal=False)
        assert rebuilt.flight.entries() == clean.flight.entries()

    @pytest.mark.parametrize("crash_after", [2, 5, 9])
    def test_kill_recover_replays_the_same_alert_sequence(
        self, tmp_path, crash_after
    ):
        scenario = scenario_by_name("alert-storm")
        clean_path = tmp_path / "clean.jsonl"
        clean = build_scheduler(
            scenario,
            journal=SchedulerJournal.create(clean_path, snapshot_interval=1),
        )
        baseline = clean.run()
        clean.journal.close()
        clean_alerts = alert_transitions_from_records(
            read_journal(clean_path).records
        )
        assert any(t.action == "fired" for t in clean_alerts)
        assert any(t.action == "resolved" for t in clean_alerts)

        crash_path = tmp_path / "crash.jsonl"
        outcome = run_with_crash(
            scenario,
            crash_after=crash_after,
            journal_path=crash_path,
            baseline=baseline,
        )
        assert outcome.mismatch is None
        recovered_alerts = alert_transitions_from_records(
            read_journal(crash_path).records
        )
        assert recovered_alerts == clean_alerts

    def test_recovered_engine_resumes_mid_alert(self, tmp_path):
        # Kill while an alert is active; the recovered scheduler must
        # come back with the same active alerts and health, not a reset
        # engine.
        path = tmp_path / "crash.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=1)
        scheduler = _congested_scheduler(_stormy_slo(), journal=journal)
        crashed_at = None
        while scheduler.step():
            if scheduler.slo.active_alerts():
                crashed_at = scheduler.ticks
                break
        assert crashed_at is not None
        active = scheduler.slo.active_alerts()
        health = scheduler.slo.health()
        ring = scheduler.flight.entries()
        journal.close()
        recovered = recover_scheduler(path, resume_journal=False)
        assert recovered.slo.active_alerts() == active
        assert recovered.slo.health() == health
        assert recovered.flight.entries() == ring

    def test_replayed_samples_match_live_header(self, tmp_path):
        # serve-vs-top byte identity: frames rendered from the journal's
        # samples equal frames rendered from the live tick history.
        path = tmp_path / "run.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=1)
        scheduler = _congested_scheduler(_stormy_slo(), journal=journal)
        scheduler.run()
        journal.close()
        replayed = samples_from_records(read_journal(path).records)
        live = list(scheduler.tick_history)
        assert replayed == live
        assert render_frame(replayed) == render_frame(live)


class TestEngineInScheduler:
    def test_slo_config_survives_the_journal_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=1)
        config = _stormy_slo()
        scheduler = _congested_scheduler(config, journal=journal)
        scheduler.run()
        journal.close()
        recovered = recover_scheduler(path, resume_journal=False)
        assert recovered.config.slo == config
        assert isinstance(recovered.slo, SLOEngine)

    def test_report_health_matches_engine(self):
        scheduler = _congested_scheduler(_stormy_slo())
        report = scheduler.run()
        assert report.health == scheduler.slo.health()


class TestFleetBreakerSignal:
    """The breaker signal and debug state read every backend's breaker."""

    def _outage_trio(self):
        specs = generate_workload(workload_by_name("steady"), seed=3)
        return MaxScheduler(
            specs,
            LATENCY,
            seed=3,
            config=ServiceConfig(slo=default_slo_config()),
            backends=backend_preset_by_name("outage-trio"),
        )

    def test_open_backend_breaker_fires_breaker_open(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            self._outage_trio().run()
        fired = [
            r.event.alert for r in events_of(tracer.records, "AlertFired")
        ]
        assert "breaker-open" in fired

    def test_debug_state_records_each_backend_breaker(self):
        scheduler = self._outage_trio()
        seen_open = False
        while scheduler.step():
            breakers = scheduler.debug_state()["breaker"]
            assert set(breakers) == {"fast", "balanced", "cheap"}
            seen_open = seen_open or breakers["balanced"] == "open"
        assert seen_open
