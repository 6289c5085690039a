"""Worker error models.

The paper treats human error as orthogonal (handled by the Reliable Worker
Layer), but a credible platform substrate must be able to *produce* errors
for the RWL to handle.  Each model gives, per submitted answer, the
probability that the worker reports the loser instead of the true winner;
the platform draws one Bernoulli flip per answer from those probabilities.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.crowd.ground_truth import GroundTruth
from repro.errors import InvalidParameterError
from repro.types import Element


class ErrorModel(ABC):
    """Decides how likely a single worker is to answer a question wrongly."""

    @abstractmethod
    def error_probabilities(
        self, truth: GroundTruth, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Probability that a worker answers each pair ``(a[i], b[i])`` wrongly."""

    def error_probability(
        self, truth: GroundTruth, a: Element, b: Element
    ) -> float:
        """Probability that a worker answers the pair ``(a, b)`` wrongly."""
        return float(self.error_probabilities(truth, np.array([a]), np.array([b]))[0])


class PerfectWorkers(ErrorModel):
    """Error-free workers: the setting of the paper's main analysis."""

    def error_probabilities(
        self, truth: GroundTruth, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        return np.zeros(len(a))

    def __repr__(self) -> str:
        return "PerfectWorkers()"


class UniformError(ErrorModel):
    """Every comparison is answered wrongly with a fixed probability."""

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate < 0.5:
            raise InvalidParameterError(
                f"error rate must be in [0, 0.5) for majority voting to "
                f"converge, got {rate}"
            )
        self.rate = rate

    def error_probabilities(
        self, truth: GroundTruth, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        return np.full(len(a), self.rate)

    def __repr__(self) -> str:
        return f"UniformError(rate={self.rate:g})"


class DistanceSensitiveError(ErrorModel):
    """Errors concentrate on close calls.

    The error probability decays exponentially with the true rank gap:
    ``p_err = base * exp(-(gap - 1) / scale)``.  Adjacent elements
    (``gap == 1``) are the hardest, at probability *base*; far-apart
    elements are nearly always judged correctly — matching how humans
    compare, e.g., car prices.
    """

    def __init__(self, base: float = 0.4, scale: float = 10.0) -> None:
        if not 0.0 <= base < 0.5:
            raise InvalidParameterError(
                f"base error must be in [0, 0.5), got {base}"
            )
        if scale <= 0:
            raise InvalidParameterError(f"scale must be > 0, got {scale}")
        self.base = base
        self.scale = scale

    def error_probability(
        self, truth: GroundTruth, a: Element, b: Element
    ) -> float:
        gap = truth.rank_gap(a, b)
        return self.base * float(np.exp(-(gap - 1) / self.scale))

    def error_probabilities(
        self, truth: GroundTruth, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        gaps = np.abs(truth.ranks[a] - truth.ranks[b])
        return self.base * np.exp(-(gaps - 1) / self.scale)

    def __repr__(self) -> str:
        return f"DistanceSensitiveError(base={self.base:g}, scale={self.scale:g})"
