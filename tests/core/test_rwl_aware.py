"""Tests for the repetition-aware allocator wrapper."""

import numpy as np
import pytest

from repro.core.latency import LinearLatency
from repro.core.rwl_aware import RepetitionAwareAllocator, _RepeatedLatency
from repro.core.tdp import TDPAllocator
from repro.errors import InvalidParameterError

MTURK = LinearLatency(239, 0.06)


class TestRepeatedLatency:
    def test_scales_the_batch_size(self):
        repeated = _RepeatedLatency(MTURK, 5)
        assert repeated(100) == MTURK(500)

    def test_batch_matches_scalar(self):
        repeated = _RepeatedLatency(MTURK, 3)
        qs = np.array([0, 1, 50])
        assert np.allclose(
            repeated.batch(qs), [repeated(int(q)) for q in qs]
        )

    def test_compares_by_value(self):
        same = _RepeatedLatency(LinearLatency(239, 0.06), 3)
        assert _RepeatedLatency(MTURK, 3) == same
        assert hash(_RepeatedLatency(MTURK, 3)) == hash(same)
        assert _RepeatedLatency(MTURK, 3) != _RepeatedLatency(MTURK, 4)


class TestRepetitionAwareAllocator:
    def test_repeated_calls_share_one_tdp_table(self):
        inner = TDPAllocator()
        wrapped = RepetitionAwareAllocator(inner, 3)
        for budget in (900, 1200, 1500):
            wrapped.allocate(100, budget, MTURK)
        assert len(inner._tables) == 1

    def test_repetition_one_is_transparent(self):
        plain = TDPAllocator().allocate(100, 700, MTURK)
        wrapped = RepetitionAwareAllocator(TDPAllocator(), 1).allocate(
            100, 700, MTURK
        )
        assert wrapped.round_budgets == plain.round_budgets

    def test_budgets_are_distinct_question_counts(self):
        wrapped = RepetitionAwareAllocator(TDPAllocator(), 5).allocate(
            100, 3500, MTURK
        )
        # Distinct budget is 700; no round can plan more than that.
        assert wrapped.total_questions <= 700

    def test_platform_budget_conserved(self):
        repetition = 4
        wrapped = RepetitionAwareAllocator(TDPAllocator(), repetition).allocate(
            60, 1200, MTURK
        )
        assert wrapped.total_questions * repetition <= 1200

    def test_optimizes_end_to_end_latency(self):
        """The wrapper's plan, priced at L(r*q) per round, is at least as
        good as naively planning with the raw L and the distinct budget."""
        repetition = 5
        n, platform_budget = 100, 2000
        wrapped = RepetitionAwareAllocator(TDPAllocator(), repetition).allocate(
            n, platform_budget, MTURK
        )
        naive = TDPAllocator().allocate(n, platform_budget // repetition, MTURK)

        def true_latency(allocation):
            return sum(MTURK(repetition * q) for q in allocation.round_budgets)

        assert true_latency(wrapped) <= true_latency(naive) + 1e-9

    def test_repetition_shifts_toward_fewer_questions(self):
        """Repetition amplifies the per-question cost, so the optimal plan
        spends fewer distinct questions."""
        plain = TDPAllocator().allocate(200, 4000, MTURK)
        wrapped = RepetitionAwareAllocator(TDPAllocator(), 9).allocate(
            200, 4000 * 9, MTURK
        )
        # Same distinct budget available (4000), but the repeated batches
        # are 9x as slow per question: never more distinct questions.
        assert wrapped.total_questions <= plain.total_questions

    def test_infeasible_after_division(self):
        with pytest.raises(InvalidParameterError):
            RepetitionAwareAllocator(TDPAllocator(), 10).allocate(
                100, 500, MTURK
            )

    def test_name_and_validation(self):
        wrapper = RepetitionAwareAllocator(TDPAllocator(), 3)
        assert wrapper.name == "tDP@x3"
        with pytest.raises(InvalidParameterError):
            RepetitionAwareAllocator(TDPAllocator(), 0)

    def test_end_to_end_with_noisy_platform(self):
        """Wrapper + RWL + noisy workers: the whole stack stays consistent
        and accurate."""
        from repro.crowd.error_models import UniformError
        from repro.crowd.ground_truth import GroundTruth
        from repro.crowd.platform import SimulatedPlatform
        from repro.crowd.rwl import ReliableWorkerLayer
        from repro.engine.max_engine import MaxEngine, PlatformAnswerSource
        from repro.selection.tournament import TournamentFormation

        repetition = 5
        rng = np.random.default_rng(9)
        truth = GroundTruth.random(16, rng)
        platform = SimulatedPlatform(
            truth, rng, error_model=UniformError(0.15)
        )
        rwl = ReliableWorkerLayer(platform, rng, repetition=repetition)
        allocation = RepetitionAwareAllocator(
            TDPAllocator(), repetition
        ).allocate(16, 400, MTURK)
        engine = MaxEngine(
            TournamentFormation(), PlatformAnswerSource(rwl), rng
        )
        result = engine.run(truth, allocation)
        assert platform.stats.questions_posted == (
            repetition * result.total_questions
        )
        assert platform.stats.questions_posted <= 400
