"""The Appendix B.2 scoring function (Algorithm 2 of the paper).

Ranking candidates by their probability of being the MAX is #P-hard
(Appendix B.1, reproduced in :mod:`repro.analysis.permutations`), so the
paper uses a PageRank-like surrogate instead: a random walker starts at a
uniformly random element and repeatedly follows a uniformly random outgoing
edge (loser -> winner); the score of an element is the probability that the
walker gets trapped there.  Only elements that never lost (the remaining
candidates) can trap the walker, and their scores sum to one.

The walk probabilities are computed by transferring "energy" from losers to
the elements that beat them.  Every element starts with ``1 / c0``; an
element that lost passes all of its energy, in equal shares, to the
elements that beat it, once it has received everything it ever will.

The scores must sum in one fixed order, or their last bits (and with them
the tie-breaks of :func:`best_scored` and every golden run) move: each
receiver starts at ``1 / c0`` and adds its senders' shares
``energy[loser] / conquerors(loser)`` one at a time, in ascending
(transitive wins, element id) order of the sender — the order the paper's
algorithm visits elements in.  The code runs on the evidence's
``(winner, loser)`` columns one batch of receivers at a time, deepest
first (:meth:`~repro.graphs.answer_graph.AnswerGraph.layered_answers`),
so every sender's energy is final before it is read, and sorts each
batch's rows by that sender rank.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.graphs.answer_graph import AnswerGraph
from repro.types import Element


def score_candidates(evidence: AnswerGraph) -> Dict[Element, float]:
    """Run Algorithm 2: random-walk trap probabilities per candidate.

    Args:
        evidence: the DAG of all answers from previous rounds, over the
            *initial* collection (eliminated elements still carry energy
            that must flow to their conquerors).

    Returns:
        Mapping of each remaining candidate to its score.  Scores are
        positive and sum to 1 (up to floating-point error).  With no answers
        recorded yet, every element is a candidate with score ``1 / c_0``.

    Raises:
        InconsistentAnswersError: if the evidence holds a preference cycle.
    """
    n = len(evidence)
    winners, losers, passes = evidence.layered_answers()
    wins = _transitive_wins(n, winners, losers, passes)
    order = np.lexsort(((wins * n + np.arange(n))[losers], -passes))
    receivers, senders = winners[order], losers[order]
    conquerors = np.bincount(senders, minlength=n)[senders]
    energy = np.full(n, 1.0 / n)
    for batch in _batches(passes):
        np.add.at(
            energy, receivers[batch], energy[senders[batch]] / conquerors[batch]
        )
    scores = energy.tolist()
    return {
        element: scores[element]
        for element in evidence.remaining_candidates()
    }


def transitive_wins(evidence: AnswerGraph) -> np.ndarray:
    """For each element, how many elements it beats implicitly or
    explicitly (the size of its descendant set in the win relation).

    Raises:
        InconsistentAnswersError: if the evidence holds a preference cycle.
    """
    return _transitive_wins(len(evidence), *evidence.layered_answers())


def _transitive_wins(
    n: int, winners: np.ndarray, losers: np.ndarray, passes: np.ndarray
) -> np.ndarray:
    """:func:`transitive_wins` over layered columns: each element's set of
    itself and everything below it as packed bits, each winner's the union
    of its losers' sets, deepest winners first."""
    below = np.zeros((n, (n + 63) // 64), np.uint64)
    ids = np.arange(n)
    below.view(np.uint8)[ids, ids >> 3] = 1 << (ids & 7)
    # The rows are sorted by winner, and a stable sort keeps each winner's
    # rows together within its batch.
    order = np.argsort(-passes, kind="stable")
    winners, losers = winners[order], losers[order]
    heads = np.flatnonzero(np.diff(winners, prepend=-1))
    for batch in _batches(passes):
        first, last = np.searchsorted(heads, (batch.start, batch.stop))
        groups = heads[first:last]
        below[winners[groups]] |= np.bitwise_or.reduceat(
            below[losers[batch]], groups - batch.start
        )
    return _BITS_SET[below.view(np.uint8)].sum(axis=1, dtype=np.int64) - 1


#: The number of bits set in each byte value.
_BITS_SET = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8
)


def _batches(passes: np.ndarray) -> List[slice]:
    """The slices of the rows sorted by descending pass that share a pass,
    deepest first."""
    ends = np.cumsum(np.bincount(passes)[:0:-1]).tolist()
    return [slice(start, end) for start, end in zip([0] + ends, ends)]


def best_scored(evidence: AnswerGraph) -> Element:
    """The non-singleton winner: highest Algorithm 2 score.

    Ties go to the lower element id, which keeps runs reproducible.
    """
    scores = score_candidates(evidence)
    return max(scores, key=lambda element: (scores[element], -element))


def most_wins(evidence: AnswerGraph) -> Element:
    """The element that won the most recorded comparisons, ties to the
    lower id.

    The fallback winner of evidence that :func:`best_scored` cannot rank
    because it holds a preference cycle; it makes no random draw.
    """
    winners = evidence.sorted_answers()[:, 0]
    return int(np.bincount(winners, minlength=len(evidence)).argmax())
