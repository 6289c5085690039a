"""Linear-extension counting and the exact probability of being the MAX.

Appendix B.1 of the paper proves that computing ``P-Max`` — the probability
that a given element is the MAX, conditioned on the answers seen so far and
a uniform prior over permutations — is #P-hard, by reduction from counting
linear extensions (LE-Count).  This module implements both quantities
*exactly* by dynamic programming over subsets, which is exponential in the
number of elements and therefore only usable for small collections; that is
precisely the point of the hardness result, and the exact values let the
test suite validate the scoring surrogate and the Lemma 4 expectations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

from repro.errors import InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph
from repro.types import Element

_MAX_EXACT_ELEMENTS = 20


def _check_size(n_elements: int) -> None:
    if n_elements > _MAX_EXACT_ELEMENTS:
        raise InvalidParameterError(
            f"exact permutation computations are exponential; refusing "
            f"{n_elements} > {_MAX_EXACT_ELEMENTS} elements"
        )


def count_linear_extensions(graph: AnswerGraph) -> int:
    """Number of total orders consistent with the recorded answers.

    Uses the classic subset DP: a linear extension is built from the bottom
    (smallest element first); an element can be placed next if everything it
    beat has already been placed.  Runtime ``O(2^n * n)``.
    """
    elements = range(len(graph))
    _check_size(len(elements))
    # beaten_mask[i] = bitmask of elements that element i beat directly.
    beaten_mask = [0] * len(elements)
    for winner, loser in graph.sorted_answers().tolist():
        beaten_mask[winner] |= 1 << loser

    full = (1 << len(elements)) - 1

    @lru_cache(maxsize=None)
    def extensions(placed: int) -> int:
        if placed == full:
            return 1
        total = 0
        for i in range(len(elements)):
            bit = 1 << i
            if placed & bit:
                continue
            # Element i can be the next-smallest if everything it beat is
            # already placed (it must rank above all of them).
            if beaten_mask[i] & ~placed:
                continue
            # It must also not have beaten-by constraints violated: anyone
            # who beat i must still be unplaced (they rank above i).  That
            # is automatic: if w beat i and w were placed, then i would have
            # been required before w.  Enforce explicitly for safety.
            total += extensions(placed | bit)
        return total

    # Verify consistency first: zero extensions signals a cycle.
    graph.validate_acyclic()
    result = extensions(0)
    extensions.cache_clear()
    return result


def p_max(graph: AnswerGraph) -> Dict[Element, float]:
    """Exact ``P-Max``: probability each element is the MAX given the answers.

    Conditioning is on a uniform prior over all permutations consistent with
    the answer DAG.  Elements that lost a comparison have probability 0.
    Runtime ``O(2^n * n^2)``.
    """
    elements = tuple(range(len(graph)))
    _check_size(len(elements))
    total = count_linear_extensions(graph)
    if total == 0:
        raise InvalidParameterError("the answer graph admits no linear extension")
    candidates = graph.remaining_candidates()
    probabilities: Dict[Element, float] = {}
    for element in elements:
        if element not in candidates:
            probabilities[element] = 0.0
            continue
        probabilities[element] = (
            _extensions_with_max(graph, elements, element) / total
        )
    return probabilities


def _extensions_with_max(
    graph: AnswerGraph, elements: Tuple[Element, ...], candidate: Element
) -> int:
    """Linear extensions in which *candidate* is the top element.

    Equivalent to counting extensions of the DAG augmented with "candidate
    beats everyone": candidate must be placed last in the bottom-up DP.
    """
    augmented = AnswerGraph(elements)
    augmented.record_pairs(graph.sorted_answers())
    augmented.record_pairs(
        [(candidate, other) for other in elements if other != candidate]
    )
    return count_linear_extensions(augmented)
