"""CT selectors: SPREAD early, COMPLETE late (Section 5.2).

``CT25`` applies SPREAD in the first 25% of all rounds and COMPLETE in the
remaining 75% — the paper's example: with a 4-round allocation, SPREAD picks
round 1 and COMPLETE picks rounds 2-4.  ``CT50`` and ``CT75`` shift the
split point.  The idea is exploration-exploitation: early balanced random
questions build a non-uniform history that the later COMPLETE rounds
exploit by concentrating questions on the strongest candidates.

When the fraction of rounds is fractional we take the floor but always give
SPREAD at least one round (a CT selector that never explores would have no
scores to exploit).
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import InvalidParameterError
from repro.selection.base import QuestionSelector, SelectionContext
from repro.selection.complete import Complete
from repro.selection.spread import Spread
from repro.types import Question


class SpreadThen(QuestionSelector):
    """SPREAD for the first ``spread_fraction`` of rounds, *later* afterwards.

    Named ``<prefix><percent>``: ``CT25`` is SPREAD then COMPLETE over the
    first 25% of the rounds, ``SG25`` SPREAD then GREEDY.
    """

    def __init__(
        self, prefix: str, later: QuestionSelector, spread_fraction: float
    ) -> None:
        if not 0.0 < spread_fraction < 1.0:
            raise InvalidParameterError(
                f"spread_fraction must be in (0, 1), got {spread_fraction}"
            )
        self.spread_fraction = spread_fraction
        self.name = f"{prefix}{int(round(spread_fraction * 100))}"
        self._spread = Spread()
        self._later = later

    def spread_rounds(self, total_rounds: int) -> int:
        """How many leading rounds SPREAD gets for a *total_rounds* plan."""
        return max(1, math.floor(self.spread_fraction * total_rounds))

    def select(self, ctx: SelectionContext) -> List[Question]:
        if ctx.round_index < self.spread_rounds(ctx.total_rounds):
            return self._spread.select(ctx)
        return self._later.select(ctx)


class CTSelector(SpreadThen):
    """SPREAD for the first ``fraction`` of rounds, COMPLETE afterwards."""

    def __init__(self, spread_fraction: float = 0.25) -> None:
        super().__init__("CT", Complete(), spread_fraction)


def ct25() -> CTSelector:
    """The CT25 selector evaluated in the paper's experiments."""
    return CTSelector(0.25)


def ct50() -> CTSelector:
    """CT50: SPREAD in the first half of the rounds."""
    return CTSelector(0.50)


def ct75() -> CTSelector:
    """CT75: SPREAD in the first three quarters of the rounds."""
    return CTSelector(0.75)
