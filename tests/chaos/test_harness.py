"""Chaos harness: kill/recover/verify at tick boundaries."""

import dataclasses

import pytest

from repro.chaos import (
    ChaosScenario,
    describe_mismatch,
    describe_state_mismatch,
    run_chaos,
    run_with_crash,
    seeded_crash_points,
    total_steps,
    uninterrupted_report,
    uninterrupted_run,
)
from repro.crowd.faults import RetryPolicy
from repro.crowd.multibackend import backend_preset_by_name
from repro.errors import InvalidParameterError
from repro.obs.tracer import RecordingTracer, use_tracer

FAULTY = ChaosScenario(
    workload="steady",
    seed=3,
    faults="outages",
    retry_policy=RetryPolicy(),
)


class TestHarnessApi:
    def test_requires_exactly_one_crash_schedule(self):
        scenario = ChaosScenario()
        with pytest.raises(InvalidParameterError):
            run_chaos(scenario)
        with pytest.raises(InvalidParameterError):
            run_chaos(scenario, crash_points=[1], sweep=True)

    def test_rejects_negative_crash_point(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            run_with_crash(
                ChaosScenario(), -1, journal_path=tmp_path / "j.jsonl"
            )

    def test_seeded_crash_points_are_deterministic(self):
        first = seeded_crash_points(FAULTY, 4)
        second = seeded_crash_points(FAULTY, 4)
        assert first == second
        assert first == sorted(first)
        assert all(0 <= p <= total_steps(FAULTY) for p in first)

    def test_describe_mismatch_pinpoints_the_field(self):
        baseline = uninterrupted_report(ChaosScenario())
        assert describe_mismatch(baseline, baseline) is None
        tweaked = dataclasses.replace(baseline, makespan=baseline.makespan + 1)
        assert "makespan" in describe_mismatch(tweaked, baseline)

    def test_describe_mismatch_names_the_attribution(self):
        baseline = uninterrupted_report(ChaosScenario())
        with use_tracer(RecordingTracer()):
            traced = uninterrupted_report(ChaosScenario())
        assert traced.attribution is not None
        assert dataclasses.replace(traced, attribution=None) == baseline
        message = describe_mismatch(traced, baseline)
        assert message.startswith("attribution: ")

    def test_describe_mismatch_names_a_query_spec(self):
        baseline = uninterrupted_report(ChaosScenario())
        first = baseline.results[0]
        spec = dataclasses.replace(first.spec, budget=first.spec.budget + 1)
        tweaked = dataclasses.replace(
            baseline,
            results=(dataclasses.replace(first, spec=spec),)
            + baseline.results[1:],
        )
        message = describe_mismatch(tweaked, baseline)
        assert message.startswith(f"query {first.spec.query_id} spec: ")

    def test_describe_state_mismatch_names_the_slot(self):
        _, state = uninterrupted_run(ChaosScenario())
        assert describe_state_mismatch(state, state) is None
        tweaked = {**state, "ticks": state["ticks"] + 1}
        assert "'ticks'" in describe_state_mismatch(tweaked, state)

    def test_final_state_is_compared_beside_the_report(self, tmp_path):
        # A recovery whose report matches but whose streams ended
        # elsewhere must fail: with error-free workers the report does
        # not show which pairs were drawn.
        scenario = ChaosScenario()
        baseline, state = uninterrupted_run(scenario)
        backends = [dict(backend) for backend in state["backends"]]
        backends[0]["rng"] = {**backends[0]["rng"], "rwl": None}
        outcome = run_with_crash(
            scenario,
            crash_after=2,
            journal_path=tmp_path / "j.jsonl",
            baseline=baseline,
            baseline_state={**state, "backends": backends},
        )
        assert not outcome.equivalent
        assert outcome.mismatch == "final scheduler state differs in 'backends'"

    def test_crash_beyond_the_last_step_recovers_a_finished_run(self, tmp_path):
        scenario = ChaosScenario()
        outcome = run_with_crash(
            scenario,
            crash_after=total_steps(scenario) + 10,
            journal_path=tmp_path / "late.jsonl",
        )
        assert outcome.equivalent
        assert outcome.crash_after == total_steps(scenario)


class TestRecoveryEquivalence:
    def test_three_seeded_crash_points_under_outages(self, tmp_path):
        """The tier-1 version of the acceptance sweep: three seeded kills
        of a faulty workload must all recover bit-identically."""
        report = run_chaos(FAULTY, n_crashes=3, journal_dir=tmp_path)
        assert len(report.outcomes) >= 1
        assert report.all_equivalent, report.render()

    def test_sparse_snapshots_still_recover_exactly(self, tmp_path):
        scenario = dataclasses.replace(FAULTY, snapshot_interval=4)
        report = run_chaos(scenario, n_crashes=3, journal_dir=tmp_path)
        assert report.all_equivalent, report.render()

    def test_render_mentions_every_crash_point(self, tmp_path):
        report = run_chaos(
            ChaosScenario(), crash_points=[0, 1], journal_dir=tmp_path
        )
        rendered = report.render()
        assert "kill after step    0" in rendered
        assert "kill after step    1" in rendered
        assert "all recoveries bit-identical" in rendered

    @pytest.mark.slow
    def test_every_tick_boundary_under_outages(self, tmp_path):
        """The full acceptance property: kill at EVERY tick boundary of a
        faulty workload; every recovery must be bit-identical."""
        report = run_chaos(FAULTY, sweep=True, journal_dir=tmp_path)
        assert len(report.outcomes) == total_steps(FAULTY) + 1
        assert report.all_equivalent, report.render()

    @pytest.mark.slow
    def test_every_tick_boundary_with_breaker_and_sustained_outage(
        self, tmp_path
    ):
        from repro.crowd.breaker import CircuitBreakerConfig

        scenario = ChaosScenario(
            workload="smoke",
            seed=11,
            faults="sustained",
            retry_policy=RetryPolicy(),
            breaker=CircuitBreakerConfig(failure_threshold=2),
        )
        report = run_chaos(scenario, sweep=True, journal_dir=tmp_path)
        assert report.all_equivalent, report.render()


    def test_every_tick_boundary_of_a_capacity_capped_fleet(self, tmp_path):
        """Both ``duo`` backends capped at 60 questions: rounds leave
        questions unposted and split query blocks across the backends,
        and a kill at any tick boundary still recovers bit-identically."""
        from repro.chaos import build_scheduler

        fleet = tuple(
            dataclasses.replace(spec, capacity=60)
            for spec in backend_preset_by_name("duo")
        )
        scenario = ChaosScenario(workload="steady", seed=3, backends=fleet)
        scheduler = build_scheduler(scenario)
        post_round = scheduler.router.post_round
        unposted = []

        def recording_post_round(*args, **kwargs):
            outcome = post_round(*args, **kwargs)
            unposted.append(len(outcome.unposted))
            return outcome

        scheduler.router.post_round = recording_post_round
        scheduler.run()
        assert sum(unposted) > 0
        report = run_chaos(scenario, sweep=True, journal_dir=tmp_path)
        assert len(report.outcomes) == total_steps(scenario) + 1
        assert report.all_equivalent, report.render()


class TestNamedScenarios:
    def test_registry_lists_multibackend_outage(self):
        from repro.chaos import available_scenarios, scenario_by_name

        assert "multibackend-outage" in available_scenarios()
        scenario = scenario_by_name("multibackend-outage")
        assert scenario.backends is not None
        assert [s.name for s in scenario.backends] == [
            "fast", "balanced", "cheap",
        ]
        with pytest.raises(InvalidParameterError, match="multibackend"):
            scenario_by_name("nonesuch")

    def test_backends_exclude_legacy_fault_fields(self):
        from repro.chaos import scenario_by_name
        from repro.crowd.breaker import CircuitBreakerConfig

        scenario = scenario_by_name("multibackend-outage")
        with pytest.raises(InvalidParameterError):
            dataclasses.replace(scenario, faults="outages")
        with pytest.raises(InvalidParameterError):
            dataclasses.replace(
                scenario, breaker=CircuitBreakerConfig()
            )

    def test_multibackend_outage_recovers_bit_identically(self, tmp_path):
        from repro.chaos import scenario_by_name

        scenario = scenario_by_name("multibackend-outage")
        report = run_chaos(
            scenario, crash_points=[1], journal_dir=tmp_path
        )
        assert report.all_equivalent, report.render()
        assert "backends=fast,balanced,cheap" in report.render()


class TestDeadlineStorm:
    """The ``deadline-storm`` scenario: every robustness feature at once.

    Deadlines, replans, hedged rounds and brownout transitions must all
    survive a kill/recover cycle bit-identically, and every admitted
    query must reach an explicit terminal state — no silent losses.
    """

    def test_registry_lists_deadline_storm(self):
        from repro.chaos import available_scenarios, scenario_by_name

        assert "deadline-storm" in available_scenarios()
        scenario = scenario_by_name("deadline-storm")
        assert scenario.config.default_deadline is not None
        assert scenario.config.hedge is not None
        assert scenario.config.brownout is not None

    def test_no_admitted_query_is_ever_lost(self):
        from repro.chaos import scenario_by_name
        from repro.service import DEADLINE_OUTCOMES

        scenario = scenario_by_name("deadline-storm")
        report = uninterrupted_report(scenario)
        assert len(report.results) == scenario.n_queries
        assert all(
            r.deadline_outcome in DEADLINE_OUTCOMES for r in report.results
        )

    @pytest.mark.parametrize("seed", [7, 1, 2, 3])
    def test_storm_exercises_every_deadline_path(self, seed):
        from repro.chaos import build_scheduler, scenario_by_name

        scenario = dataclasses.replace(
            scenario_by_name("deadline-storm"), seed=seed
        )
        scheduler = build_scheduler(scenario)
        report = scheduler.run()
        attainment = report.deadline_attainment
        # The scenario is tuned so no outcome class rests on one query,
        # at its own seed and at others.
        assert attainment is not None
        assert all(attainment[outcome] >= 2 for outcome in attainment)
        assert scheduler.router.hedges >= 2
        assert scheduler.brownout.transitions >= 2

    def test_deadline_storm_recovers_bit_identically(self, tmp_path):
        from repro.chaos import scenario_by_name

        scenario = scenario_by_name("deadline-storm")
        report = run_chaos(
            scenario, crash_points=[1, 5, 9], journal_dir=tmp_path
        )
        assert report.all_equivalent, report.render()

    @pytest.mark.slow
    def test_every_tick_boundary_of_the_storm(self, tmp_path):
        from repro.chaos import scenario_by_name

        scenario = scenario_by_name("deadline-storm")
        report = run_chaos(scenario, sweep=True, journal_dir=tmp_path)
        assert report.all_equivalent, report.render()

    def test_recovered_results_keep_deadline_outcomes(self, tmp_path):
        from repro.chaos import build_scheduler, scenario_by_name
        from repro.service.journal import SchedulerJournal, recover_scheduler

        scenario = scenario_by_name("deadline-storm")
        baseline = uninterrupted_report(scenario)
        journal_path = tmp_path / "storm.jsonl"
        journal = SchedulerJournal.create(
            journal_path, snapshot_interval=scenario.snapshot_interval
        )
        victim = build_scheduler(scenario, journal=journal)
        for _ in range(4):
            victim.step()
        journal.close()
        del victim

        survivor = recover_scheduler(journal_path)
        recovered = survivor.run()
        if survivor.journal is not None:
            survivor.journal.close()
        assert [r.deadline_outcome for r in recovered.results] == [
            r.deadline_outcome for r in baseline.results
        ]
        assert recovered.deadline_attainment == baseline.deadline_attainment
