"""GREEDY: concentrate questions on the likeliest MAX candidates.

Section 5.2 mentions a second exploitation strategy the authors tried:
combining SPREAD with the GREEDY question-selection algorithm of Guo et
al. [10] ("So who won? Dynamic max discovery with the crowd", SIGMOD 2012).
The defining idea of that family is to pick the next comparisons that are
most likely to involve (and hence eliminate competitors of) the true MAX,
as judged from the evidence so far.

This implementation ranks candidate pairs by the combined Appendix B.2
scores of their endpoints and asks the top-budget pairs: the strongest
candidates get compared against each other first, then against
progressively weaker ones.  Like COMPLETE it is an *exploitation* strategy
and needs score diversity to do anything smarter than SPREAD, so it is
usually wrapped in a :class:`repro.selection.ct.SpreadThen` schedule
with an exploration phase first.
"""

from __future__ import annotations

from typing import List

from repro.selection.base import QuestionSelector, SelectionContext
from repro.selection.ct import SpreadThen
from repro.selection.scoring import score_candidates
from repro.types import Question, normalize_question


class Greedy(QuestionSelector):
    """Ask the pairs with the highest combined candidate scores."""

    name = "GREEDY"

    def select(self, ctx: SelectionContext) -> List[Question]:
        candidates = list(ctx.candidates)
        if len(candidates) < 2 or ctx.budget == 0:
            return []
        scores = score_candidates(ctx.evidence)
        # Shuffle first so that equal-score pairs tie-break randomly, then
        # sort by combined score (stable sort keeps the shuffle inside ties).
        ctx.rng.shuffle(candidates)
        ranked = sorted(
            candidates, key=lambda e: scores.get(e, 0.0), reverse=True
        )
        pairs = [
            normalize_question(a, b)
            for i, a in enumerate(ranked)
            for b in ranked[i + 1 :]
        ]
        pairs.sort(
            key=lambda pair: scores.get(pair[0], 0.0) + scores.get(pair[1], 0.0),
            reverse=True,
        )
        return pairs[: ctx.budget]


class SpreadGreedy(SpreadThen):
    """SPREAD in the first ``fraction`` of the rounds, GREEDY afterwards.

    The SPREAD+GREEDY combination the paper reports trying alongside CT25
    (Section 5.2's closing paragraph).
    """

    def __init__(self, spread_fraction: float = 0.25) -> None:
        super().__init__("SG", Greedy(), spread_fraction)
