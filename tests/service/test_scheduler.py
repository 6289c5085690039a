"""End-to-end tests of the multi-query MAX scheduler."""

import dataclasses

import pytest

from repro.core.latency import LinearLatency
from repro.crowd.error_models import UniformError
from repro.crowd.faults import FaultProfile, RetryPolicy, fault_profile_by_name
from repro.engine.session import submit_rounds
from repro.errors import InvalidParameterError
from repro.obs.metrics import get_registry
from repro.obs.profiling import profiled
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.selection.scoring import most_wins
from repro.service import (
    MaxScheduler,
    QuerySpec,
    QueryState,
    SchedulerJournal,
    ServiceConfig,
    WorkloadConfig,
    generate_workload,
    recover_scheduler,
    workload_by_name,
)
from repro.service import scheduler as scheduler_module
from repro.service.deadline import DEADLINE_MET, DEADLINE_OUTCOMES

LATENCY = LinearLatency(239, 0.06)


def spec(query_id, n=10, budget=50, **kwargs):
    return QuerySpec(query_id=query_id, n_elements=n, budget=budget, **kwargs)


def run_workload(specs, config=None, seed=0, **kwargs):
    return MaxScheduler(specs, LATENCY, seed=seed, config=config, **kwargs).run()


class TestHappyPath:
    def test_single_query_finds_its_max(self):
        report = run_workload([spec(0, n=20, budget=100)])
        assert report.n_queries == 1
        result = report.results[0]
        assert result.state is QueryState.COMPLETED
        assert result.correct
        assert 0 <= result.winner < 20

    def test_concurrent_queries_all_find_their_max(self):
        """Queries sharing one platform stay isolated: every winner is
        the true MAX of the query's own slice of the element space."""
        specs = [spec(i, n=12, budget=70) for i in range(8)]
        report = run_workload(specs)
        assert len(report.completed) == 8
        assert report.accuracy == 1.0

    def test_results_are_in_query_id_order(self):
        specs = [
            spec(2, arrival_time=0.0),
            spec(0, arrival_time=50.0),
            spec(1, arrival_time=25.0),
        ]
        report = run_workload(specs)
        assert [r.spec.query_id for r in report.results] == [0, 1, 2]

    def test_staggered_arrivals_wait_for_their_time(self):
        specs = [spec(0, arrival_time=0.0), spec(1, arrival_time=5000.0)]
        report = run_workload(specs)
        late = report.results[1]
        assert late.state is QueryState.COMPLETED
        # Latency is measured from arrival, not from service start.
        assert late.latency < report.makespan

    def test_trivial_single_element_query(self):
        report = run_workload([spec(0, n=1, budget=0)])
        result = report.results[0]
        assert result.state is QueryState.COMPLETED
        assert result.winner == 0
        assert result.correct
        assert result.questions_posted == 0

    def test_queries_share_rounds(self):
        """Simultaneous same-shape queries ride the same shared rounds."""
        specs = [spec(i, n=10, budget=50) for i in range(6)]
        report = run_workload(specs)
        assert report.shared_rounds < sum(r.rounds for r in report.results)


class TestActiveQueryIdentity:
    def test_equal_fields_stay_distinct_in_the_active_list(self):
        """Queries compare by identity: finalizing one of two queries whose
        fields are all equal removes that one, not its twin."""
        scheduler = MaxScheduler(
            [spec(0, n=40, budget=80), spec(1, n=40, budget=80)], LATENCY, seed=0
        )
        scheduler.step()
        query = scheduler._active[0]
        twin = dataclasses.replace(query)
        assert twin != query
        scheduler._active = [twin, query]
        scheduler._finalize([(query, QueryState.DEGRADED, None)])
        assert len(scheduler._active) == 1
        assert scheduler._active[0] is twin


class TestValidation:
    def test_empty_workload_rejected(self):
        with pytest.raises(InvalidParameterError):
            MaxScheduler([], LATENCY, seed=0)

    def test_duplicate_query_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            MaxScheduler([spec(0), spec(0)], LATENCY, seed=0)

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(max_inflight_questions=0)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(repetition=0)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(overload_policy="panic")

    def test_unknown_selector_rejected_at_construction(self):
        with pytest.raises(InvalidParameterError, match="unknown selector"):
            MaxScheduler(
                [spec(0, arrival_time=50.0)],
                LATENCY,
                seed=0,
                config=ServiceConfig(selector="NoSuchSelector"),
            )


class TestAdmissionControl:
    def burst(self, n=6):
        return [spec(i) for i in range(n)]

    def test_shed_policy_drops_overflow(self):
        config = ServiceConfig(
            max_active_queries=1, max_queue_depth=1, overload_policy="shed"
        )
        report = run_workload(self.burst(), config=config)
        assert len(report.shed) > 0
        assert len(report.finished) + len(report.shed) == 6
        for result in report.shed:
            assert result.state is QueryState.SHED
            assert result.winner is None
            assert "queue full" in result.shed_reason

    def test_defer_policy_finishes_everything(self):
        config = ServiceConfig(
            max_active_queries=1, max_queue_depth=1, overload_policy="defer"
        )
        report = run_workload(self.burst(), config=config)
        assert len(report.shed) == 0
        assert len(report.finished) == 6

    def test_narrow_active_window_serializes(self):
        wide = run_workload(self.burst(), config=ServiceConfig())
        narrow = run_workload(
            self.burst(), config=ServiceConfig(max_active_queries=1)
        )
        assert len(narrow.finished) == len(wide.finished) == 6
        assert narrow.shared_rounds > wide.shared_rounds


class TestBackpressure:
    def test_small_inflight_cap_spreads_rounds(self):
        specs = [spec(i, n=10, budget=50) for i in range(5)]
        unlimited = run_workload(specs, config=ServiceConfig())
        squeezed = run_workload(
            specs, config=ServiceConfig(max_inflight_questions=30)
        )
        assert len(squeezed.finished) == 5
        assert squeezed.accuracy == 1.0
        assert squeezed.shared_rounds > unlimited.shared_rounds

    def test_oversized_round_still_runs_alone(self):
        """A single round larger than the cap must not starve forever."""
        report = run_workload(
            [spec(0, n=20, budget=100)],
            config=ServiceConfig(max_inflight_questions=5),
        )
        assert report.results[0].state is QueryState.COMPLETED


class TestSLO:
    def test_slo_flags_follow_latency(self):
        specs = [
            spec(0, latency_slo=1e9),  # impossible to miss
            spec(1, latency_slo=1e-3),  # impossible to meet
            spec(2),  # no SLO
        ]
        report = run_workload(specs)
        by_id = {r.spec.query_id: r for r in report.results}
        assert by_id[0].slo_met is True
        assert by_id[1].slo_met is False
        assert by_id[2].slo_met is None
        assert report.slo_attainment == 0.5


class TestFaults:
    def test_faulty_run_with_retries_completes(self):
        specs = [spec(i, n=12, budget=70) for i in range(4)]
        report = run_workload(
            specs,
            fault_profile=FaultProfile(abandon_prob=0.05, drop_prob=0.15),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        assert len(report.finished) == 4

    def test_pathological_loss_degrades_not_hangs(self):
        """With almost every answer lost and a tight attempt cap, queries
        must degrade gracefully instead of looping forever."""
        specs = [spec(i, n=10, budget=50) for i in range(3)]
        report = run_workload(
            specs,
            config=ServiceConfig(max_round_attempts=2),
            fault_profile=FaultProfile(drop_prob=0.95, abandon_prob=0.9),
        )
        assert len(report.finished) == 3
        assert len(report.degraded) > 0
        for result in report.degraded:
            assert result.winner is not None
            assert result.state is QueryState.DEGRADED

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lossy_noisy_300_query_run_ends_every_query(self, seed, monkeypatch):
        """300 steady queries, sizes 8/16/24, budget factors 4 and 8,
        ``UniformError(0.3)``, repetition 1, ``lossy`` faults and retries.

        The lost part of a round is answered, and repaired, in a later
        tick than the rest, which can close a preference cycle in a
        session's evidence.  Such a query ends ``DEGRADED`` on the element
        with the most recorded wins instead of stopping the run."""
        cyclic = []
        monkeypatch.setattr(
            scheduler_module,
            "most_wins",
            lambda evidence: cyclic.append(evidence) or most_wins(evidence),
        )
        specs = generate_workload(
            WorkloadConfig(
                n_queries=300,
                mean_interarrival=60.0,
                sizes=(8, 16, 24),
                budget_factors=(4.0, 8.0),
            ),
            seed,
        )
        tracer = RecordingTracer()
        with use_tracer(tracer):
            report = run_workload(
                specs,
                seed=seed,
                config=ServiceConfig(repetition=1),
                error_model=UniformError(0.3),
                fault_profile=fault_profile_by_name("lossy"),
                retry_policy=RetryPolicy(),
            )
        assert cyclic  # the run reached the cyclic-evidence path
        assert sorted(r.spec.query_id for r in report.results) == sorted(
            s.query_id for s in specs
        )
        for result in report.results:
            assert result.questions_posted <= result.spec.budget
            assert result.state in (QueryState.COMPLETED, QueryState.DEGRADED)
        assert len(report.degraded) >= len(cyclic)
        # The exit events carry each result's own terminal state.
        states = {r.spec.query_id: r.state.value for r in report.results}
        exits = tracer.events("QueryCompleted")
        assert sorted(e.query_id for e in exits) == sorted(states)
        assert all(e.state == states[e.query_id] for e in exits)


class TestColumnSplit:
    def test_each_query_receives_exactly_its_own_rows(self, monkeypatch):
        """The priority policy packs queries against their offset order
        and lossy faults leave rounds half answered; each query's slice of
        the tick's one submit must carry exactly the round's rows inside
        its element range."""
        specs = [
            spec(i, n=8 + 3 * i, budget=40 + 15 * i, priority=i)
            for i in range(6)
        ]
        scheduler = MaxScheduler(
            specs,
            LATENCY,
            seed=0,
            config=ServiceConfig(policy="priority"),
            fault_profile=fault_profile_by_name("lossy"),
            retry_policy=RetryPolicy(max_attempts=1),
        )
        truth = scheduler.truth
        outcomes = []
        post_round = scheduler.router.post_round

        def record_outcome(*args, **kwargs):
            outcomes.append(post_round(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(scheduler.router, "post_round", record_outcome)
        collected = []

        def check_rows(sessions, rows, counts):
            by_session = {id(q.session): q for q in scheduler._active}
            questions = outcomes[-1].questions
            start = 0
            for session, count in zip(sessions, counts):
                query = by_session[id(session)]
                answers = rows[start:start + count]
                start += count
                offset, n = query.offset, query.spec.n_elements
                own = (questions[:, 0] >= offset) & (questions[:, 0] < offset + n)
                expected = {
                    (truth.answer(lo, hi).winner, truth.answer(lo, hi).loser)
                    for lo, hi in questions[own].tolist()
                }
                received = {(w + offset, l + offset) for w, l in answers.tolist()}
                assert len(answers) == len(received) == len(expected)
                assert received == expected
                collected.append(
                    (scheduler.ticks, offset, len(answers) < len(query.unanswered))
                )
            assert start == len(rows)
            submit_rounds(sessions, rows, counts)

        monkeypatch.setattr(scheduler_module, "submit_rounds", check_rows)
        report = scheduler.run()
        assert all(r.state is QueryState.COMPLETED for r in report.results)
        ticks = {}
        for tick, offset, _ in collected:
            ticks.setdefault(tick, []).append(offset)
        assert any(offsets != sorted(offsets) for offsets in ticks.values())
        assert any(partial for _, _, partial in collected)


def _recount(results):
    """The outcome counters of a results list, recounted independently."""
    completed = degraded = shed = met = breached = 0
    wait_total = 0.0
    for result in results:
        if result.state is QueryState.COMPLETED:
            completed += 1
            wait_total += result.queue_wait
        elif result.state is QueryState.DEGRADED:
            degraded += 1
            wait_total += result.queue_wait
        else:
            shed += 1
        if result.deadline_outcome == DEADLINE_MET:
            met += 1
        elif result.deadline_outcome is not None:
            breached += 1
    finished = completed + degraded
    return (
        completed, degraded, shed, met, breached,
        wait_total / finished if finished else 0.0,
    )


def _sampled(sample):
    return (
        sample.completed, sample.degraded, sample.shed,
        sample.deadline_met, sample.deadline_breached, sample.queue_wait_mean,
    )


def _step_and_check(scheduler):
    """Drive *scheduler* to the end, checking every tick's counters."""
    checked = 0
    while scheduler.step():
        if scheduler.tick_history:
            assert _sampled(scheduler.tick_history[-1]) == _recount(
                scheduler._results
            )
            checked += 1
    return checked


class TestTickCounters:
    """Each tick's outcome counters equal a recount of the results."""

    @pytest.mark.parametrize("workload", ["steady", "deadline"])
    def test_every_tick_matches_a_recount(self, workload):
        specs = generate_workload(workload_by_name(workload), seed=3)
        scheduler = MaxScheduler(specs, LATENCY, seed=3)
        assert _step_and_check(scheduler) >= 5

    def test_degraded_queries_are_counted(self):
        specs = generate_workload(workload_by_name("steady"), seed=3)
        scheduler = MaxScheduler(
            specs,
            LATENCY,
            seed=3,
            config=ServiceConfig(max_round_attempts=2),
            fault_profile=FaultProfile(drop_prob=0.5),
        )
        assert _step_and_check(scheduler) >= 5
        assert _recount(scheduler._results)[1] > 0

    def test_a_restored_run_matches_a_recount(self, tmp_path):
        specs = generate_workload(workload_by_name("steady"), seed=3)
        path = tmp_path / "run.jsonl"
        journal = SchedulerJournal.create(path)
        victim = MaxScheduler(specs, LATENCY, seed=3, journal=journal)
        for _ in range(6):
            victim.step()
        journal.close()
        recovered = recover_scheduler(path)
        assert recovered._results
        assert recovered._tally == type(recovered._tally).of(recovered._results)
        assert _step_and_check(recovered) > 0
        recovered.journal.close()


def _registry_recount(scheduler):
    """The per-step registry metrics, recounted from the scheduler's
    results and queues."""
    results = scheduler._results
    counts = {
        "service.queries_admitted": (
            len(scheduler._active) + len(scheduler._waiting)
        ),
        "service.queries_completed": 0,
        "service.queries_degraded": 0,
        "service.queries_shed": 0,
    }
    counts.update({f"deadline.{outcome}": 0 for outcome in DEADLINE_OUTCOMES})
    latency = [0, 0.0]
    wait = [0, 0.0]
    for result in results:
        counts[f"service.queries_{result.state.value}"] += 1
        if result.deadline_outcome is not None:
            counts[f"deadline.{result.deadline_outcome}"] += 1
        if result.state is not QueryState.SHED:
            counts["service.queries_admitted"] += 1
            # Summed left to right, as the histogram does.
            latency = [latency[0] + 1, latency[1] + result.latency]
            wait = [wait[0] + 1, wait[1] + result.queue_wait]
    counts["service.query_latency"] = tuple(latency)
    counts["service.queue_wait"] = tuple(wait)
    return counts


def _registry_read(names):
    registry = get_registry()
    values = {}
    for name in names:
        if name in ("service.query_latency", "service.queue_wait"):
            histogram = registry.histogram(name)
            values[name] = (histogram.count, histogram.total)
        else:
            values[name] = registry.counter(name).value
    return values


class TestRegistryFlush:
    """The registry work batched per step is complete after every step."""

    def _drive(self, scheduler):
        """Step *scheduler* until drained, checking after every call."""
        steps = 0
        while not scheduler.drained:
            scheduler.step()
            steps += 1
            expected = _registry_recount(scheduler)
            assert _registry_read(expected) == expected
            stats = scheduler.plan_cache.stats
            assert _registry_read(
                ["service.plan_cache.hits", "service.plan_cache.misses"]
            ) == {
                "service.plan_cache.hits": stats.hits,
                "service.plan_cache.misses": stats.misses,
            }
        return steps

    def test_deadline_brownout_slo_run(self):
        from repro.chaos import build_scheduler, scenario_by_name

        get_registry().reset()
        scheduler = build_scheduler(scenario_by_name("alert-storm"))
        assert self._drive(scheduler) >= 10
        counts = _registry_recount(scheduler)
        assert counts["service.queries_shed"] > 0
        assert counts["service.queries_degraded"] > 0
        assert sum(counts[f"deadline.{o}"] for o in DEADLINE_OUTCOMES) == len(
            scheduler._results
        )

    def test_steps_without_a_tick_flush_too(self):
        # A one-element query completes at admission, so these steps
        # only admit, finalize and jump the clock.
        get_registry().reset()
        specs = [
            spec(i, n=1, budget=0, arrival_time=100.0 * i) for i in range(3)
        ]
        scheduler = MaxScheduler(specs, LATENCY, seed=0)
        assert self._drive(scheduler) == 3
        assert scheduler.ticks == 0

    def test_noisy_lossy_run(self):
        get_registry().reset()
        specs = generate_workload(
            workload_by_name("steady"), seed=3, n_queries=40
        )
        scheduler = MaxScheduler(
            specs,
            LATENCY,
            seed=3,
            config=ServiceConfig(repetition=3, max_active_queries=4),
            error_model=UniformError(0.1),
            fault_profile=fault_profile_by_name("lossy"),
            retry_policy=RetryPolicy(),
        )
        assert self._drive(scheduler) >= 10
        assert _registry_recount(scheduler)["service.queries_completed"] == 40


class TestSelectorStream:
    """Every session a scheduler creates selects with its one stream."""

    @staticmethod
    def _sessions(scheduler):
        return [q.session for q in scheduler._active + scheduler._waiting]

    def test_sessions_share_the_scheduler_stream(self):
        specs = [spec(i, n=40, budget=80) for i in range(8)]
        scheduler = MaxScheduler(
            specs, LATENCY, seed=0, config=ServiceConfig(max_active_queries=3)
        )
        scheduler.step()
        sessions = self._sessions(scheduler)
        assert scheduler._active and scheduler._waiting
        assert all(s.rng is scheduler.selector_rng for s in sessions)
        other = MaxScheduler(specs, LATENCY, seed=0)
        assert other.selector_rng is not scheduler.selector_rng

    def test_recovered_sessions_share_the_restored_stream(self, tmp_path):
        specs = generate_workload(workload_by_name("steady"), seed=3)
        path = tmp_path / "run.jsonl"
        journal = SchedulerJournal.create(path, snapshot_interval=1)
        victim = MaxScheduler(
            specs,
            LATENCY,
            seed=3,
            fault_profile=fault_profile_by_name("lossy"),
            journal=journal,
        )
        for _ in range(4):
            victim.step()
        journal.close()
        state = victim.selector_rng.bit_generator.state
        recovered = recover_scheduler(path)
        sessions = self._sessions(recovered)
        assert sessions
        assert any(s.awaiting_answers for s in sessions)
        assert all(s.rng is recovered.selector_rng for s in sessions)
        assert recovered.selector_rng.bit_generator.state == state
        recovered.journal.close()


class TestSessionPasses:
    def test_one_open_and_one_submit_pass_per_tick(self):
        """The scheduler opens and resolves every query's round in one
        pass each per tick, however many queries share the tick."""
        specs = [spec(i, n=12, budget=70) for i in range(12)]
        scheduler = MaxScheduler(specs, LATENCY, seed=0)
        with profiled(publish=False) as profiler:
            report = scheduler.run()
        counts = profiler.snapshot()
        assert report.accuracy == 1.0
        assert counts["session.open_passes"] <= scheduler.ticks
        assert counts["session.submit_passes"] <= scheduler.ticks
        assert counts["session.rounds_opened"] > 2 * scheduler.ticks


class TestPlanCacheIntegration:
    def test_same_shape_queries_hit_the_cache(self):
        specs = [spec(i, n=10, budget=50) for i in range(5)]
        report = run_workload(specs)
        assert report.cache_misses == 1
        assert report.cache_hits == 4
        hits = [r.plan_cache_hit for r in report.results]
        assert hits.count(False) == 1


class TestObservability:
    def test_trace_events_cover_the_lifecycle(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            run_workload([spec(i) for i in range(3)])
        assert len(tracer.events("QueryAdmitted")) == 3
        assert len(tracer.events("QueryScheduled")) >= 3
        assert len(tracer.events("QueryCompleted")) == 3
        completed = tracer.events("QueryCompleted")[0]
        assert completed.state == "completed"

    def test_shed_event_carries_the_reason(self):
        tracer = RecordingTracer()
        config = ServiceConfig(
            max_active_queries=1, max_queue_depth=0, overload_policy="shed"
        )
        with use_tracer(tracer):
            run_workload([spec(i) for i in range(4)], config=config)
        shed = tracer.events("QueryShed")
        assert shed
        assert "queue full" in shed[0].reason

    def test_service_metrics_accumulate(self):
        registry = get_registry()
        registry.reset()
        report = run_workload([spec(i) for i in range(3)])
        assert registry.counter("service.queries_admitted").value == 3
        assert registry.counter("service.queries_completed").value == 3
        assert registry.counter("service.rounds").value == report.shared_rounds
        assert registry.histogram("service.query_latency").count == 3


class TestPresetWorkloads:
    @pytest.mark.parametrize("preset", ["smoke", "steady", "sla"])
    def test_presets_run_clean(self, preset):
        specs = generate_workload(workload_by_name(preset), seed=3)
        report = run_workload(specs, seed=3)
        assert len(report.finished) == len(specs)
        assert report.makespan > 0
        rendered = report.render(per_query=True)
        assert f"queries:          {len(specs)}" in rendered
