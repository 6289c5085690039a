"""The hidden true order of the collection (Section 2.1).

The paper assumes "a true unknown permutation for the elements of C ... a
strict order without equalities".  :class:`GroundTruth` holds that
permutation and acts as the comparison oracle: in the paper's MTurk
experiments worker answers were replaced with ground-truth answers exactly
like this ("we simulate error-free workers by ignoring their answers").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError
from repro.types import Answer, Element, Questions, as_pairs


class GroundTruth:
    """A strict total order over elements ``0 .. n-1``.

    Args:
        order: the elements from best (the MAX) to worst.  Must be a
            permutation of ``0 .. len(order) - 1``.

    Attributes:
        order: int64 array of the elements, best first.
        ranks: int64 array, ``ranks[element]`` is the element's position
            in :attr:`order` (0 = best).
    """

    def __init__(self, order: Sequence[Element]) -> None:
        self.order = np.asarray(order, dtype=np.int64).reshape(-1)
        n = len(self.order)
        if n and (
            self.order.min() < 0
            or not np.array_equal(np.bincount(self.order), np.ones(n))
        ):
            raise InvalidParameterError(
                "order must be a permutation of 0..n-1 (best to worst)"
            )
        self.ranks = np.empty(n, dtype=np.int64)
        self.ranks[self.order] = np.arange(n, dtype=np.int64)

    @classmethod
    def random(cls, n_elements: int, rng: np.random.Generator) -> "GroundTruth":
        """A uniformly random hidden permutation over ``n_elements``."""
        if n_elements < 1:
            raise InvalidParameterError(f"n_elements must be >= 1: {n_elements}")
        return cls(rng.permutation(n_elements))

    @classmethod
    def identity(cls, n_elements: int) -> "GroundTruth":
        """The order in which element 0 is the MAX, 1 the runner-up, etc."""
        return cls(np.arange(n_elements))

    @property
    def n_elements(self) -> int:
        return len(self.order)

    @property
    def max_element(self) -> Element:
        """The true MAX of the collection."""
        return int(self.order[0])

    def rank(self, element: Element) -> int:
        """Position of *element* in the true order (0 = best)."""
        if not 0 <= element < len(self.ranks):
            raise InvalidParameterError(f"unknown element {element}")
        return int(self.ranks[element])

    def better(self, a: Element, b: Element) -> Element:
        """The true winner of a comparison between *a* and *b*."""
        if a == b:
            raise InvalidParameterError(f"cannot compare element {a} to itself")
        return a if self.rank(a) < self.rank(b) else b

    def winners(self, pairs: Questions) -> np.ndarray:
        """:meth:`better` over the ``(a, b)`` rows of *pairs*, as one int64
        column; raises its error for the first row it rejects."""
        rows = as_pairs(pairs)
        if len(rows) and (rows[:, 0] == rows[:, 1]).any():
            self._reject(rows)
        return self.distinct_winners(rows)

    def distinct_winners(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`winners` of an ``(n, 2)`` int64 array whose rows are
        known to pair distinct elements (a caller that already rejected
        self-comparisons); raises :meth:`better`'s error for the first row
        naming an unknown element."""
        a, b = rows[:, 0], rows[:, 1]
        if len(rows) and (rows.min() < 0 or rows.max() >= len(self.ranks)):
            self._reject(rows)
        ranks = self.ranks
        return np.where(ranks[a] < ranks[b], a, b)

    def _reject(self, rows: np.ndarray) -> None:
        """Raise :meth:`better`'s error for the first row it rejects."""
        for pair in rows.tolist():
            self.better(*pair)

    def answer(self, a: Element, b: Element) -> Answer:
        """The error-free answer to the question between *a* and *b*."""
        winner = self.better(a, b)
        loser = b if winner == a else a
        return Answer(winner=winner, loser=loser)

    def rank_gap(self, a: Element, b: Element) -> int:
        """Absolute rank distance between two elements.

        Distance-sensitive error models use this: elements close in the
        true order are harder for humans to tell apart.
        """
        return abs(self.rank(a) - self.rank(b))

    def __repr__(self) -> str:
        return f"GroundTruth(n={self.n_elements}, max={self.max_element})"
