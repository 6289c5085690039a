"""The Appendix B.2 scoring function (Algorithm 2 of the paper).

Ranking candidates by their probability of being the MAX is #P-hard
(Appendix B.1, reproduced in :mod:`repro.analysis.permutations`), so the
paper uses a PageRank-like surrogate instead: a random walker starts at a
uniformly random element and repeatedly follows a uniformly random outgoing
edge (loser -> winner); the score of an element is the probability that the
walker gets trapped there.  Only elements that never lost (the remaining
candidates) can trap the walker, and their scores sum to one.

The walk probabilities are computed by transferring "energy" from losers to
the elements that beat them, processing elements in ascending order of
(implicit or explicit) win counts — which is a topological order of the
answer DAG, so each element transfers its energy exactly once, after having
received everything it ever will.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

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
    """
    elements = evidence.elements
    energy: Dict[Element, float] = {e: 1.0 / len(elements) for e in elements}
    wins = evidence.transitive_wins()
    # Ascending transitive-wins order is a topological order of the answer
    # DAG: an edge u -> v (v beat u) implies wins(v) >= wins(u) + 1.
    for element in sorted(elements, key=lambda e: wins[e]):
        conquerors = evidence.winners_over(element)
        if not conquerors:
            continue  # a remaining candidate keeps (and accumulates) energy
        share = energy[element] / len(conquerors)
        for conqueror in conquerors:
            energy[conqueror] += share
        energy[element] = 0.0
    return {
        element: energy[element]
        for element in evidence.remaining_candidates()
    }


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
    wins = Counter(answer.winner for answer in evidence.iter_answers())
    return max(evidence.elements, key=lambda element: (wins[element], -element))
