"""Tests for worker error models."""

import numpy as np
import pytest

from repro.crowd.error_models import (
    DistanceSensitiveError,
    PerfectWorkers,
    UniformError,
)
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform


class TestPerfectWorkers:
    def test_zero_error_probability(self):
        truth = GroundTruth.identity(5)
        assert PerfectWorkers().error_probability(truth, 0, 4) == 0.0

    def test_answers_always_correct(self, rng):
        truth = GroundTruth.identity(10)
        pairs = [rng.choice(10, size=2, replace=False) for _ in range(50)]
        platform = SimulatedPlatform(truth, rng, error_model=PerfectWorkers())
        result = platform.post_batch(pairs)
        for (a, b), winner in zip(pairs, result.winners.tolist()):
            assert winner == truth.better(int(a), int(b))


class TestUniformError:
    def test_rate_bounds(self):
        with pytest.raises(Exception):
            UniformError(0.5)
        with pytest.raises(Exception):
            UniformError(-0.1)
        UniformError(0.0)
        UniformError(0.49)

    def test_empirical_error_rate(self):
        truth = GroundTruth.identity(4)
        platform = SimulatedPlatform(
            truth, np.random.default_rng(0), error_model=UniformError(0.3)
        )
        wrong = (platform.post_batch([(0, 3)] * 5000).winners == 3).sum()
        assert wrong / 5000 == pytest.approx(0.3, abs=0.03)


class TestDistanceSensitiveError:
    def test_adjacent_pairs_hardest(self):
        truth = GroundTruth.identity(20)
        model = DistanceSensitiveError(base=0.4, scale=5.0)
        adjacent = model.error_probability(truth, 5, 6)
        distant = model.error_probability(truth, 0, 19)
        assert adjacent == pytest.approx(0.4)
        assert distant < 0.02
        assert adjacent > distant

    def test_monotone_in_gap(self):
        truth = GroundTruth.identity(30)
        model = DistanceSensitiveError()
        probabilities = [
            model.error_probability(truth, 0, other) for other in range(1, 30)
        ]
        assert all(
            later <= earlier
            for earlier, later in zip(probabilities, probabilities[1:])
        )

    def test_parameter_validation(self):
        with pytest.raises(Exception):
            DistanceSensitiveError(base=0.6)
        with pytest.raises(Exception):
            DistanceSensitiveError(scale=0)


@pytest.mark.parametrize(
    "model",
    [
        PerfectWorkers(),
        UniformError(0.2),
        DistanceSensitiveError(),
        DistanceSensitiveError(base=0.3, scale=2.5),
    ],
    ids=repr,
)
def test_vector_probabilities_match_the_scalar_ones(model):
    truth = GroundTruth.random(40, np.random.default_rng(3))
    pairs = np.array([(a, b) for a in range(40) for b in range(40) if a != b])
    vector = model.error_probabilities(truth, pairs[:, 0], pairs[:, 1])
    scalar = [model.error_probability(truth, int(a), int(b)) for a, b in pairs]
    np.testing.assert_allclose(vector, scalar, rtol=1e-12, atol=0)
