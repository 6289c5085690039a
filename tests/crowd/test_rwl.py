"""Tests for the Reliable Worker Layer (Section 2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.error_models import UniformError
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer
from repro.errors import InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph
from repro.types import Answer


def make_rwl(seed=0, n=20, repetition=1, error_rate=None):
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(n, rng)
    error_model = UniformError(error_rate) if error_rate else None
    platform = SimulatedPlatform(truth, rng, error_model=error_model)
    return ReliableWorkerLayer(platform, rng, repetition=repetition), truth


class TestContract:
    def test_one_answer_per_distinct_question(self):
        rwl, _ = make_rwl()
        result = rwl.ask([(0, 1), (1, 2), (0, 1)])
        assert len(result.answers) == 2
        assert result.questions.tolist() == [[0, 1], [1, 2]]

    def test_empty_input(self):
        rwl, _ = make_rwl()
        result = rwl.ask([])
        assert len(result.answers) == 0
        assert result.latency == 0.0

    def test_repetition_multiplies_posted_questions(self):
        rwl, _ = make_rwl(repetition=5)
        result = rwl.ask([(0, 1), (2, 3)])
        assert result.questions_posted == 10

    def test_invalid_repetition(self):
        rng = np.random.default_rng(0)
        truth = GroundTruth.identity(4)
        platform = SimulatedPlatform(truth, rng)
        with pytest.raises(InvalidParameterError):
            ReliableWorkerLayer(platform, rng, repetition=0)

    def test_perfect_workers_pass_through(self):
        """With error-free workers the output equals the ground truth and no
        cycle resolution fires."""
        rwl, truth = make_rwl()
        questions = [(i, i + 1) for i in range(10)]
        result = rwl.ask(questions)
        assert result.majority_flips == 0
        for (a, b), winner in zip(result.questions.tolist(), result.winners):
            assert winner == truth.better(a, b)


class TestConsistency:
    @given(
        seed=st.integers(0, 200),
        error_rate=st.sampled_from([0.0, 0.2, 0.4]),
        repetition=st.sampled_from([1, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_output_is_always_acyclic(self, seed, error_rate, repetition):
        """The RWL contract: a conflict-free answer set, whatever the
        workers did."""
        rwl, _ = make_rwl(
            seed=seed, n=8, repetition=repetition, error_rate=error_rate or None
        )
        questions = [(a, b) for a in range(8) for b in range(a + 1, 8)]
        result = rwl.ask(questions)
        graph = AnswerGraph(range(8))
        graph.record_all(
            Answer(winner, loser) for winner, loser in result.answers.tolist()
        )
        graph.validate_acyclic()  # raises on any cycle
        assert len(result.answers) == len(questions)

    def test_repetition_improves_accuracy(self):
        """Majority voting over more copies recovers more true answers."""

        def accuracy(repetition, seeds=15):
            correct = total = 0
            for seed in range(seeds):
                rwl, truth = make_rwl(
                    seed=seed, n=12, repetition=repetition, error_rate=0.35
                )
                questions = [(i, i + 1) for i in range(11)]
                result = rwl.ask(questions)
                for (a, b), winner in zip(
                    result.questions.tolist(), result.winners
                ):
                    correct += winner == truth.better(a, b)
                    total += 1
            return correct / total

        assert accuracy(7) > accuracy(1)

    def test_cycle_resolution_reports_flips(self):
        """With very noisy workers on a clique, cycles appear and the repair
        flips at least one majority edge in some run."""
        total_flips = 0
        for seed in range(30):
            rwl, _ = make_rwl(seed=seed, n=6, repetition=1, error_rate=0.45)
            questions = [(a, b) for a in range(6) for b in range(a + 1, 6)]
            total_flips += rwl.ask(questions).majority_flips
        assert total_flips > 0

    def test_latency_comes_from_one_batch(self):
        """Repetition happens inside a single platform batch, not extra
        rounds: latency equals that batch's completion time."""
        rwl, _ = make_rwl(repetition=3)
        result = rwl.ask([(0, 1), (2, 3)])
        assert result.latency > 0
        assert rwl.platform.stats.batches_posted == 1
