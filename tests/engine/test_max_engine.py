"""Tests for the MAX-operator engine."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation
from repro.core.latency import LinearLatency
from repro.crowd.error_models import UniformError
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer
from repro.engine.adversarial import WorstCaseAnswerSource
from repro.engine.max_engine import (
    MaxEngine,
    OracleAnswerSource,
    PlatformAnswerSource,
)
from repro.errors import InvalidParameterError
from repro.selection.spread import Spread
from repro.selection.tournament import TournamentFormation
from repro.types import as_pairs

LATENCY = LinearLatency(100, 1)


def run_with_oracle(n, allocation, selector=None, seed=0):
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(n, rng)
    engine = MaxEngine(
        selector or TournamentFormation(),
        OracleAnswerSource(truth, LATENCY),
        rng,
    )
    return engine.run(truth, allocation), truth


class TestErrorFreeRuns:
    def test_finds_true_max_with_tournaments(self):
        allocation = Allocation.from_element_sequence((16, 4, 1))
        for seed in range(10):
            result, truth = run_with_oracle(16, allocation, seed=seed)
            assert result.singleton_termination
            assert result.winner == truth.max_element

    def test_latency_matches_model(self):
        allocation = Allocation.from_element_sequence((16, 4, 1))
        result, _ = run_with_oracle(16, allocation)
        # Q(16,4) = 24, Q(4,1) = 6 -> L(24) + L(6) = 124 + 106.
        assert result.total_latency == pytest.approx(230.0)
        assert result.total_questions == 30

    def test_round_records_chain(self):
        allocation = Allocation.from_element_sequence((16, 4, 1))
        result, _ = run_with_oracle(16, allocation)
        assert [r.candidates_before for r in result.records] == [16, 4]
        assert [r.candidates_after for r in result.records] == [4, 1]
        assert all(
            r.questions_posted <= r.budget for r in result.records
        )

    def test_early_stop_skips_remaining_rounds(self):
        """A lavish first round finds the MAX; later rounds never run."""
        allocation = Allocation(round_budgets=(200, 50, 50))
        result, truth = run_with_oracle(10, allocation)
        assert result.rounds_run == 1
        assert result.winner == truth.max_element
        assert result.total_latency == pytest.approx(LATENCY(45))

    def test_zero_budget_rounds_cost_nothing(self):
        allocation = Allocation(round_budgets=(0, 45))
        result, _ = run_with_oracle(10, allocation)
        assert result.rounds_run == 1  # the zero round posted nothing
        assert result.total_latency == pytest.approx(LATENCY(45))

    def test_non_singleton_termination_flagged(self):
        """An underpowered allocation leaves several candidates; the engine
        must say so and still pick a plausible winner."""
        allocation = Allocation(round_budgets=(4,))
        result, _ = run_with_oracle(10, allocation)
        assert not result.singleton_termination
        assert 0 <= result.winner < 10

    def test_winner_scoring_fallback_prefers_proven_elements(self):
        """With SPREAD and a tiny budget, the declared winner must be a
        remaining candidate."""
        allocation = Allocation(round_budgets=(5,))
        result, truth = run_with_oracle(10, allocation, selector=Spread())
        assert not result.singleton_termination
        # the winner never lost a comparison
        assert result.winner is not None


class TestPlatformRuns:
    def test_end_to_end_with_perfect_workers(self):
        rng = np.random.default_rng(1)
        truth = GroundTruth.random(12, rng)
        platform = SimulatedPlatform(truth, rng)
        engine = MaxEngine(
            TournamentFormation(),
            PlatformAnswerSource(ReliableWorkerLayer(platform, rng)),
            rng,
        )
        allocation = Allocation.from_element_sequence((12, 3, 1))
        result = engine.run(truth, allocation)
        assert result.singleton_termination
        assert result.winner == truth.max_element
        assert result.total_latency > 0

    def test_noisy_workers_with_repetition_usually_right(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            truth = GroundTruth.random(8, rng)
            platform = SimulatedPlatform(
                truth, rng, error_model=UniformError(0.15)
            )
            engine = MaxEngine(
                TournamentFormation(),
                PlatformAnswerSource(
                    ReliableWorkerLayer(platform, rng, repetition=7)
                ),
                rng,
            )
            allocation = Allocation.from_element_sequence((8, 2, 1))
            result = engine.run(truth, allocation)
            hits += result.winner == truth.max_element
        assert hits >= 7


class TestReproducibility:
    def test_same_seed_same_result(self):
        allocation = Allocation.from_element_sequence((20, 5, 1))
        first, _ = run_with_oracle(20, allocation, seed=9)
        second, _ = run_with_oracle(20, allocation, seed=9)
        assert first.winner == second.winner
        assert first.total_latency == second.total_latency
        assert first.records == second.records

    def test_summary_mentions_verdict(self):
        allocation = Allocation.from_element_sequence((10, 1))
        result, _ = run_with_oracle(10, allocation)
        assert "correct" in result.summary()
        assert "singleton" in result.summary()


@st.composite
def rounds(draw, max_pairs=12):
    """A collection size and one round of distinct canonical questions."""
    n = draw(st.integers(2, 10))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair.filter(lambda p: p[0] < p[1]), unique=True, max_size=max_pairs))
    return n, pairs


def answer_sources(n, seed):
    """One answer source of each kind over a random order of *n* elements."""
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(n, rng)
    platform = SimulatedPlatform(truth, rng, error_model=UniformError(0.2))
    sources = {
        "oracle": OracleAnswerSource(truth, LATENCY),
        "platform": PlatformAnswerSource(ReliableWorkerLayer(platform, rng, repetition=3)),
    }
    for mode in ("exact", "greedy"):
        worst = WorstCaseAnswerSource(LATENCY, mode)
        worst.candidates = tuple(range(n))
        sources[f"worst/{mode}"] = worst
    return sources


class TestAnswerSources:
    @given(
        st.integers(1, 10).flatmap(
            lambda n: st.tuples(
                st.permutations(range(n)),
                st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)), max_size=15),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_oracle_equals_better_pair_by_pair(self, case):
        """The vector oracle answers each row as :meth:`GroundTruth.better`
        does, and raises its error for the first row ``better`` rejects."""
        order, pairs = case
        truth = GroundTruth(order)
        source = OracleAnswerSource(truth, LATENCY)
        expected = []
        try:
            for a, b in pairs:
                winner = truth.better(a, b)
                expected.append([winner, a + b - winner])
        except InvalidParameterError as error:
            with pytest.raises(InvalidParameterError, match=re.escape(str(error))):
                source.resolve(as_pairs(pairs))
            return
        answers, latency = source.resolve(as_pairs(pairs))
        assert answers.tolist() == expected
        assert latency == LATENCY(len(pairs))

    @pytest.mark.parametrize("name", ["oracle", "platform", "worst/exact", "worst/greedy"])
    @given(case=rounds(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_rows_answer_the_posted_pairs_in_order(self, name, case, seed):
        """The ``AnswerSource`` contract: ``(k, 2)`` int64 ``(winner,
        loser)`` rows, one per posted question, in question order."""
        n, pairs = case
        questions = as_pairs(pairs)
        answers, latency = answer_sources(n, seed)[name].resolve(questions)
        assert isinstance(answers, np.ndarray)
        assert answers.dtype == np.int64 and answers.shape == (len(pairs), 2)
        assert np.array_equal(np.sort(answers, axis=1), questions)
        assert (answers[:, 0] != answers[:, 1]).all()
        assert latency >= 0
