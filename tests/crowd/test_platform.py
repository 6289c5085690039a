"""Tests for the discrete-event platform simulation."""

import numpy as np
import pytest

from repro.crowd.error_models import UniformError
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import PlatformError


def make_platform(seed=0, n=50, **config_kwargs):
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(n, rng)
    config = WorkerPoolConfig(**config_kwargs) if config_kwargs else None
    return SimulatedPlatform(truth, rng, config=config), truth


class TestBatchExecution:
    def test_every_question_answered(self):
        platform, _ = make_platform()
        questions = [(i, i + 1) for i in range(0, 40, 2)]
        result = platform.post_batch(questions)
        assert result.n_answers == len(questions)
        assert result.questions.tolist() == [list(q) for q in questions]

    def test_answers_match_ground_truth_for_perfect_workers(self):
        platform, truth = make_platform()
        result = platform.post_batch([(0, 1), (2, 3), (4, 5)])
        for (a, b), winner in zip(result.questions.tolist(), result.winners):
            assert winner == truth.better(a, b)

    def test_completion_time_is_last_submission(self):
        platform, _ = make_platform()
        result = platform.post_batch([(i, i + 1) for i in range(0, 30, 2)])
        assert result.completion_time == result.submit_times.max()

    def test_empty_batch(self):
        platform, _ = make_platform()
        result = platform.post_batch([])
        assert result.completion_time == 0.0
        assert result.n_answers == 0

    def test_duplicate_questions_answered_independently(self):
        platform, _ = make_platform(n=4)
        result = platform.post_batch([(0, 1)] * 5)
        assert result.n_answers == 5

    def test_self_comparison_rejected(self):
        platform, _ = make_platform()
        with pytest.raises(PlatformError):
            platform.post_batch([(3, 3)])

    def test_deterministic_under_seed(self):
        first, _ = make_platform(seed=11)
        second, _ = make_platform(seed=11)
        questions = [(i, i + 1) for i in range(0, 20, 2)]
        assert (
            first.post_batch(questions).completion_time
            == second.post_batch(questions).completion_time
        )


class TestLatencyShape:
    def test_small_batches_dominated_by_discovery(self):
        """Tiny batches take roughly the discovery delay (the delta of the
        paper's linear fit)."""
        times = []
        for seed in range(20):
            platform, _ = make_platform(seed=seed)
            times.append(platform.post_batch([(0, 1)]).completion_time)
        assert 100 < np.mean(times) < 400

    def test_oversized_batches_take_longer(self):
        """Past the worker-pool saturation point latency must grow clearly
        with batch size (the Section 6.6 motivation)."""

        def mean_time(batch_size):
            times = []
            for seed in range(5):
                platform, _ = make_platform(seed=seed, n=200)
                questions = [
                    (i % 199, 199) for i in range(batch_size)
                ]
                times.append(platform.post_batch(questions).completion_time)
            return np.mean(times)

        assert mean_time(4000) > mean_time(400) + 100

    def test_parallelism_compensates_mid_range(self):
        """Between 100 and 1000 questions the pool grows with the batch, so
        latency grows sub-linearly (the flat region of Figure 11(a))."""

        def mean_time(batch_size):
            times = []
            for seed in range(10):
                platform, _ = make_platform(seed=seed, n=200)
                questions = [(i % 199, 199) for i in range(batch_size)]
                times.append(platform.post_batch(questions).completion_time)
            return np.mean(times)

        assert mean_time(1000) < 2 * mean_time(100)


class TestWorkerDynamics:
    def test_attention_span_brings_replacements(self):
        """With a 1-question attention span every answer needs a fresh
        worker, so many distinct workers participate."""
        platform, _ = make_platform(attention_span=1)
        result = platform.post_batch([(i, i + 1) for i in range(0, 30, 2)])
        assert result.n_workers == result.n_answers

    def test_unlimited_attention_uses_the_attracted_pool(self):
        platform, _ = make_platform()
        result = platform.post_batch([(i, i + 1) for i in range(0, 30, 2)])
        assert result.n_workers <= WorkerPoolConfig().attracted_workers(15)

    def test_stats_accumulate(self):
        platform, _ = make_platform()
        platform.post_batch([(0, 1)])
        platform.post_batch([(2, 3), (4, 5)])
        assert platform.stats.batches_posted == 2
        assert platform.stats.questions_posted == 3


class TestErrors:
    def test_uniform_error_rate_visible_in_answers(self):
        rng = np.random.default_rng(3)
        truth = GroundTruth.random(10, rng)
        platform = SimulatedPlatform(
            truth, rng, error_model=UniformError(0.25)
        )
        result = platform.post_batch([(0, 1)] * 4000)
        wrong = (result.winners != truth.better(0, 1)).sum()
        assert wrong / 4000 == pytest.approx(0.25, abs=0.03)
