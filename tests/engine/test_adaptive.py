"""Tests for the adaptive re-planning engine."""

import numpy as np
import pytest

from repro.core.latency import LinearLatency
from repro.core.tdp import TDPAllocator, solve_min_latency
from repro.crowd.ground_truth import GroundTruth
from repro.engine.adaptive import AdaptiveMaxEngine
from repro.engine.max_engine import AnswerSource, MaxEngine, OracleAnswerSource
from repro.errors import InvalidParameterError
from repro.selection.ct import ct25
from repro.selection.tournament import TournamentFormation

LATENCY = LinearLatency(239, 0.06)


def adaptive_run(n, budget, selector=None, seed=0):
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(n, rng)
    engine = AdaptiveMaxEngine(
        selector or TournamentFormation(spend_leftover=False),
        OracleAnswerSource(truth, LATENCY),
        LATENCY,
        rng,
    )
    return engine.run(truth, budget), truth


class TestPlanEquivalence:
    def test_matches_static_plan_under_pure_tournaments(self):
        """With exact tournament rounds the execution hits the planned
        states, so re-planning reproduces the static tDP trajectory and
        the same total latency (the Figure 5 optimal-substructure insight)."""
        n, budget = 64, 500
        result, _ = adaptive_run(n, budget)
        static_plan = solve_min_latency(n, budget, LATENCY)
        assert result.singleton_termination
        assert result.total_latency == pytest.approx(static_plan.total_latency)
        executed = [r.candidates_before for r in result.records] + [1]
        assert tuple(executed) == static_plan.sequence

    def test_always_finds_true_max(self):
        for seed in range(8):
            result, truth = adaptive_run(40, 200, seed=seed)
            assert result.singleton_termination
            assert result.winner == truth.max_element


class TestAdaptivity:
    def test_reinvests_leftover_eliminations(self):
        """With leftover spending on, rounds can eliminate more candidates
        than planned; the adaptive engine must still terminate correctly
        and never overspend."""
        rng = np.random.default_rng(1)
        truth = GroundTruth.random(50, rng)
        engine = AdaptiveMaxEngine(
            TournamentFormation(spend_leftover=True),
            OracleAnswerSource(truth, LATENCY),
            LATENCY,
            rng,
        )
        result = engine.run(truth, 333)
        assert result.singleton_termination
        assert result.winner == truth.max_element
        assert result.total_questions <= 333

    def test_adaptive_not_slower_with_exploiting_selector(self):
        """When CT25 over-eliminates, re-planning uses the windfall; over
        several seeds the adaptive engine is at least as fast on average
        as the static plan."""
        static_latencies = []
        adaptive_latencies = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            truth = GroundTruth.random(60, rng)
            allocation = TDPAllocator().allocate(60, 400, LATENCY)
            static_engine = MaxEngine(
                ct25(), OracleAnswerSource(truth, LATENCY), rng
            )
            static_latencies.append(
                static_engine.run(truth, allocation).total_latency
            )
            rng2 = np.random.default_rng(seed)
            truth2 = GroundTruth.random(60, rng2)
            adaptive_engine = AdaptiveMaxEngine(
                ct25(), OracleAnswerSource(truth2, LATENCY), LATENCY, rng2
            )
            adaptive_latencies.append(
                adaptive_engine.run(truth2, 400).total_latency
            )
        assert sum(adaptive_latencies) <= sum(static_latencies) * 1.05


class TestValidation:
    def test_infeasible_budget(self):
        rng = np.random.default_rng(0)
        truth = GroundTruth.random(10, rng)
        engine = AdaptiveMaxEngine(
            TournamentFormation(),
            OracleAnswerSource(truth, LATENCY),
            LATENCY,
            rng,
        )
        with pytest.raises(InvalidParameterError):
            engine.run(truth, 8)

    def test_budget_bounds_the_rounds_when_every_answer_is_lost(self):
        """No answer ever arrives, so the candidates never shrink; every
        round still spends at least one question, so the run stops within
        budget and declares a non-singleton winner."""

        class LosesEverything(AnswerSource):
            def resolve(self, questions):
                return np.empty((0, 2), np.int64), LATENCY(len(questions))

        rng = np.random.default_rng(0)
        truth = GroundTruth.random(10, rng)
        budget = 60
        engine = AdaptiveMaxEngine(
            TournamentFormation(), LosesEverything(), LATENCY, rng
        )
        result = engine.run(truth, budget)
        assert not result.singleton_termination
        assert result.total_questions <= budget
        assert 1 <= result.rounds_run <= budget
        assert all(r.questions_posted >= 1 for r in result.records)
        assert all(r.candidates_after == 10 for r in result.records)

    def test_single_element_collection(self):
        rng = np.random.default_rng(0)
        truth = GroundTruth.identity(1)
        engine = AdaptiveMaxEngine(
            TournamentFormation(),
            OracleAnswerSource(truth, LATENCY),
            LATENCY,
            rng,
        )
        result = engine.run(truth, 0)
        assert result.singleton_termination
        assert result.winner == 0
        assert result.total_latency == 0
