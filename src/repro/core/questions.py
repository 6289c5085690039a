"""The tournament question-count function Q and tournament partitioning.

This module implements Definitions 1 and 2 of the paper.  A *tournament
graph* ``G_T(c_prev, c_next)`` partitions ``c_prev`` elements into ``c_next``
cliques ("tournaments") of near-equal size; every pair inside a clique is
asked, and exactly one element per clique (the one that wins all of its
comparisons) advances to the next round.

``Q(c_prev, c_next)`` is the number of edges (questions) of that graph,
equation (2) of the paper:

    Q = C(ceil(c_prev / c_next), 2) * (c_prev mod c_next)
      + C(floor(c_prev / c_next), 2) * (c_next - c_prev mod c_next)
"""

from __future__ import annotations

import functools
from typing import List

from repro.errors import InvalidParameterError


def _pairs(n: int) -> int:
    """Number of unordered pairs among *n* items, i.e. ``C(n, 2)``."""
    return n * (n - 1) // 2


def _validate_transition(c_prev: int, c_next: int) -> None:
    if c_prev < 1:
        raise InvalidParameterError(f"c_prev must be >= 1, got {c_prev}")
    if not 1 <= c_next <= c_prev:
        raise InvalidParameterError(
            f"c_next must be in [1, c_prev={c_prev}], got {c_next}"
        )


def tournament_sizes(c_prev: int, c_next: int) -> List[int]:
    """Sizes of the ``c_next`` tournaments that ``c_prev`` elements form.

    ``c_prev mod c_next`` tournaments hold ``ceil(c_prev / c_next)`` elements
    and the remaining tournaments hold ``floor(c_prev / c_next)`` elements,
    as in Figure 3 of the paper.  Larger tournaments come first.

    Example:
        >>> tournament_sizes(24, 5)
        [5, 5, 5, 5, 4]
    """
    _validate_transition(c_prev, c_next)
    small, extra = divmod(c_prev, c_next)
    return [small + 1] * extra + [small] * (c_next - extra)


def tournament_questions(c_prev: int, c_next: int) -> int:
    """The function ``Q(c_prev, c_next)``: edges of ``G_T(c_prev, c_next)``.

    This is the number of pairwise questions needed to reduce ``c_prev``
    candidates to ``c_next`` candidates in one tournament round (equation (2)
    of the paper).

    Example:
        >>> tournament_questions(20, 5)
        30
        >>> tournament_questions(24, 5)
        46
    """
    _validate_transition(c_prev, c_next)
    small, extra = divmod(c_prev, c_next)
    return _pairs(small + 1) * extra + _pairs(small) * (c_next - extra)


def min_feasible_budget(n_elements: int) -> int:
    """The smallest budget that can identify the MAX of ``n_elements``.

    By Theorem 1 this is ``n_elements - 1``: every non-MAX element must lose
    at least one comparison.
    """
    if n_elements < 1:
        raise InvalidParameterError(f"n_elements must be >= 1, got {n_elements}")
    return n_elements - 1


def max_useful_budget(n_elements: int) -> int:
    """Budget of a single complete tournament over all elements, ``C(n, 2)``.

    No allocation ever needs more distinct questions than this.
    """
    if n_elements < 1:
        raise InvalidParameterError(f"n_elements must be >= 1, got {n_elements}")
    return _pairs(n_elements)


@functools.lru_cache(maxsize=4096)
def fewest_tournaments_within(c_prev: int, budget: int) -> int:
    """Smallest ``c_next`` with ``Q(c_prev, c_next) <= budget``.

    This is the core step of the Tournament-formation question-selection
    algorithm (Section 5.2): form as few tournaments as the round budget
    allows, because fewer tournaments eliminate more candidates.

    Raises:
        InfeasibleBudgetError-like :class:`InvalidParameterError` if even
        ``c_next = c_prev`` (zero questions) would not fit, which can only
        happen for a negative budget.

    Memoized: a pure function of two ints, asked once per tournament
    round.  Invalid arguments raise on every call (errors are not cached).
    """
    if c_prev < 1:
        raise InvalidParameterError(f"c_prev must be >= 1, got {c_prev}")
    if budget < 0:
        raise InvalidParameterError(f"budget must be >= 0, got {budget}")
    if c_prev == 1:
        return 1
    # Q(c_prev, c_next) is non-increasing in c_next, so binary search works.
    lo, hi = 1, c_prev  # Q(c_prev, c_prev) == 0 <= budget always holds.
    while lo < hi:
        mid = (lo + hi) // 2
        if tournament_questions(c_prev, mid) <= budget:
            hi = mid
        else:
            lo = mid + 1
    return lo


def halving_questions(c_prev: int) -> int:
    """Questions of the maximally conservative round: one per element pair.

    Pairing all elements (``G_T(c, ceil(c / 2))``) spends ``floor(c / 2)``
    questions and advances ``ceil(c / 2)`` candidates; with an odd count one
    element gets a bye.  This is the "one question per element" round used by
    the Heavy End / Heavy Front heuristics (Section 5.1).
    """
    if c_prev < 1:
        raise InvalidParameterError(f"c_prev must be >= 1, got {c_prev}")
    return c_prev // 2


def halving_survivors(c_prev: int) -> int:
    """Candidates that remain after a conservative pairing round."""
    if c_prev < 1:
        raise InvalidParameterError(f"c_prev must be >= 1, got {c_prev}")
    return (c_prev + 1) // 2
