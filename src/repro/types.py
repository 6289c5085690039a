"""Shared value types and type aliases.

Elements of the input collection are represented as integers ``0..n-1``.
The *identity* of an element carries no order information: the true order is
held separately by :class:`repro.crowd.ground_truth.GroundTruth`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.errors import InvalidParameterError

#: An element of the input collection.
Element = int

#: An unordered pairwise comparison question between two elements.
#: By convention questions are normalized so that ``question[0] < question[1]``.
Question = Tuple[Element, Element]

#: Questions in bulk: an ``(n, 2)`` int array or a sequence of pairs.
Questions = Union[np.ndarray, Sequence[Question]]


def as_pairs(questions: Questions) -> np.ndarray:
    """*questions* as an ``(n, 2)`` int64 array (empty input included).

    Raises:
        InvalidParameterError: if *questions* is not ``(n, 2)`` integers: a
            row of one, three or four items is rejected, never reshaped,
            and a non-integer element is rejected, never truncated.
    """
    try:
        pairs = np.asarray(questions)
    except ValueError as error:  # ragged rows
        raise InvalidParameterError(f"questions must be pairs: {error}") from None
    if pairs.size == 0:
        return np.empty((0, 2), np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InvalidParameterError(
            f"questions must be an (n, 2) array of pairs, got shape {pairs.shape}"
        )
    if pairs.dtype.kind not in "iu":
        raise InvalidParameterError(
            f"questions must be integer pairs, got dtype {pairs.dtype}"
        )
    return pairs.astype(np.int64, copy=False)


def normalize_question(a: Element, b: Element) -> Question:
    """Return the canonical ``(min, max)`` form of a question between *a*, *b*.

    Raises:
        ValueError: if ``a == b`` (an element cannot be compared to itself).
    """
    if a == b:
        raise ValueError(f"cannot form a comparison question between {a} and itself")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Answer:
    """The resolved outcome of one pairwise comparison.

    Attributes:
        winner: the element judged greater.
        loser: the element judged smaller.
    """

    winner: Element
    loser: Element

    def __post_init__(self) -> None:
        if self.winner == self.loser:
            raise ValueError("an answer must involve two distinct elements")

    @property
    def question(self) -> Question:
        """The canonical question this answer resolves."""
        return normalize_question(self.winner, self.loser)
