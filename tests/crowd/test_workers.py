"""Tests for the worker-pool model."""

import numpy as np
import pytest

from repro.crowd.workers import WorkerPoolConfig
from repro.errors import InvalidParameterError


class TestValidation:
    def test_defaults_are_valid(self):
        WorkerPoolConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean_service_time": 0},
            {"mean_service_time": -1},
            {"service_sigma": -0.1},
            {"base_workers": 0},
            {"questions_per_extra_worker": 0},
            {"max_workers": 0},
            {"discovery_mean": -5},
            {"arrival_spread": -1},
            {"attention_span": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            WorkerPoolConfig(**kwargs)


class TestAttraction:
    def test_small_batches_attract_base_workers(self):
        config = WorkerPoolConfig(base_workers=2, questions_per_extra_worker=16)
        assert config.attracted_workers(0) == 2
        assert config.attracted_workers(15) == 2

    def test_growth_with_batch_size(self):
        config = WorkerPoolConfig(
            base_workers=1, questions_per_extra_worker=16, max_workers=100
        )
        assert config.attracted_workers(160) == 11

    def test_saturation_cap(self):
        config = WorkerPoolConfig(max_workers=35)
        assert config.attracted_workers(100_000) == 35

    def test_monotone_in_batch_size(self):
        config = WorkerPoolConfig()
        values = [config.attracted_workers(q) for q in range(0, 2000, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_batch_rejected(self):
        with pytest.raises(InvalidParameterError):
            WorkerPoolConfig().attracted_workers(-1)


class TestSampling:
    def test_arrival_times_sorted_and_positive(self, rng):
        config = WorkerPoolConfig()
        arrivals = config.sample_arrival_times(10, rng)
        assert len(arrivals) == 10
        assert arrivals == sorted(arrivals)
        assert all(t >= 0 for t in arrivals)

    def test_first_arrival_near_discovery_mean(self):
        config = WorkerPoolConfig(discovery_mean=200.0, discovery_sigma=0.3)
        rng = np.random.default_rng(1)
        firsts = [config.sample_arrival_times(1, rng)[0] for _ in range(500)]
        assert np.mean(firsts) == pytest.approx(200.0, rel=0.1)

    def test_zero_discovery_mean(self, rng):
        config = WorkerPoolConfig(discovery_mean=0.0)
        assert config.sample_discovery_time(rng) == 0.0

    def test_service_time_mean(self):
        config = WorkerPoolConfig(mean_service_time=3.0, service_sigma=0.4)
        rng = np.random.default_rng(2)
        samples = config.sample_service_times(4000, rng)
        assert np.mean(samples) == pytest.approx(3.0, rel=0.05)

    def test_zero_sigma_is_deterministic(self, rng):
        config = WorkerPoolConfig(mean_service_time=3.0, service_sigma=0.0)
        assert list(config.sample_service_times(3, rng)) == [3.0] * 3

    def test_invalid_worker_count(self, rng):
        with pytest.raises(InvalidParameterError):
            WorkerPoolConfig().sample_arrival_times(0, rng)


class TestWorkerSpeed:
    def test_homogeneous_by_default(self, rng):
        config = WorkerPoolConfig()
        assert config.sample_worker_speed(rng) == 1.0

    def test_heterogeneous_mean_is_one(self):
        config = WorkerPoolConfig(worker_speed_sigma=0.5)
        rng = np.random.default_rng(4)
        speeds = [config.sample_worker_speed(rng) for _ in range(5000)]
        assert np.mean(speeds) == pytest.approx(1.0, rel=0.05)
        assert np.std(speeds) > 0.3

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidParameterError):
            WorkerPoolConfig(worker_speed_sigma=-0.1)

    def test_fast_workers_answer_more_questions(self):
        """With strong heterogeneity the per-worker answer counts become
        unequal: the fastest worker grabs a disproportionate share."""
        from collections import Counter

        from repro.crowd.ground_truth import GroundTruth
        from repro.crowd.platform import SimulatedPlatform

        rng = np.random.default_rng(6)
        truth = GroundTruth.random(100, rng)
        config = WorkerPoolConfig(
            worker_speed_sigma=1.2, arrival_spread=1.0, discovery_sigma=0.01
        )
        platform = SimulatedPlatform(truth, rng, config=config)
        questions = [(i % 99, 99) for i in range(600)]
        result = platform.post_batch(questions)
        counts = Counter(result.worker_ids.tolist())
        shares = sorted(counts.values(), reverse=True)
        assert shares[0] > 3 * shares[-1]
