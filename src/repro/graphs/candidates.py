"""Remaining-candidate analysis: maxRC, maxIND and expected RC size.

Implements the graph-theoretic machinery of Section 4 and Appendix A:

* ``maxRC(G)`` — the worst-case number of candidates that can survive when
  the questions of the undirected graph ``G`` are asked (Definition 6).
  By Theorem 2 this equals the maximum independent set of ``G``, which is
  how we compute it.
* :func:`worst_case_answers` — the Lemma 2 construction: a concrete answer
  orientation under which a given independent set survives in full.
* ``E[R]`` — the expected RC size under a uniform history (Lemma 4):
  ``sum_v 1 / (d_v + 1)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Set, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.types import Element, Question, Questions, as_pairs


def _adjacency(
    elements: Iterable[Element], questions: Iterable[Question]
) -> Dict[Element, Set[Element]]:
    adjacency: Dict[Element, Set[Element]] = {e: set() for e in elements}
    if not adjacency:
        raise InvalidParameterError("need at least one element")
    for a, b in questions:
        if a not in adjacency or b not in adjacency:
            raise InvalidParameterError(
                f"question ({a}, {b}) references elements outside the graph"
            )
        if a == b:
            raise InvalidParameterError(f"self-comparison ({a}, {b}) is invalid")
        adjacency[a].add(b)
        adjacency[b].add(a)
    return adjacency


def max_independent_set(
    elements: Iterable[Element], questions: Iterable[Question]
) -> Set[Element]:
    """An exact maximum independent set of the undirected question graph.

    Uses a branch-and-bound recursion (branch on a max-degree vertex:
    either exclude it, or include it and drop its neighborhood).  Isolated
    vertices are always included.  Exponential in the worst case — intended
    for analysis and tests, not for the inner loop of selectors.
    """
    adjacency = _adjacency(elements, questions)

    def solve(active: Set[Element]) -> Set[Element]:
        # Strip vertices of degree <= 1 greedily: an isolated vertex always
        # joins the MIS; a degree-1 vertex can always join it (keeping the
        # vertex is never worse than keeping its single neighbor).
        active = set(active)
        chosen: Set[Element] = set()
        while True:
            degree_one = None
            changed = False
            for v in active:
                neighbors = adjacency[v] & active
                if not neighbors:
                    chosen.add(v)
                    active.remove(v)
                    changed = True
                    break
                if len(neighbors) == 1:
                    degree_one = v
                    break
            if degree_one is not None:
                neighbor = next(iter(adjacency[degree_one] & active))
                chosen.add(degree_one)
                active.discard(degree_one)
                active.discard(neighbor)
                continue
            if not changed:
                break
        if not active:
            return chosen
        pivot = max(active, key=lambda v: len(adjacency[v] & active))
        # Branch 1: exclude the pivot.
        without = solve(active - {pivot})
        # Branch 2: include the pivot, excluding its whole neighborhood.
        with_pivot = {pivot} | solve(active - {pivot} - adjacency[pivot])
        best = with_pivot if len(with_pivot) > len(without) else without
        return chosen | best

    return solve(set(adjacency))


def greedy_independent_set(
    elements: Iterable[Element], questions: Iterable[Question]
) -> Set[Element]:
    """A maximal independent set via the min-degree greedy heuristic.

    Repeatedly keeps a minimum-degree vertex and discards its neighbors.
    Not necessarily maximum, but always independent and maximal — a legal
    adversary choice.
    """
    adjacency = _adjacency(elements, questions)
    active = set(adjacency)
    chosen: Set[Element] = set()
    while active:
        vertex = min(active, key=lambda v: (len(adjacency[v] & active), v))
        chosen.add(vertex)
        active -= adjacency[vertex] | {vertex}
    return chosen


def max_remaining_candidates(
    elements: Iterable[Element], questions: Iterable[Question]
) -> Set[Element]:
    """A maxRC set of the question graph (Definition 6).

    By Theorem 2 a node set is a maxRC set if and only if it is a maximum
    independent set, so this simply delegates to :func:`max_independent_set`.
    """
    return max_independent_set(elements, questions)


def worst_case_answers(
    elements: Sequence[Element],
    questions: Questions,
    surviving: Iterable[Element],
) -> np.ndarray:
    """Orient every question so that all of *surviving* survive (Lemma 2).

    Constructs a permutation that ranks the surviving (independent) set on
    top and orients each question edge toward the higher-ranked endpoint.
    The returned ``(winner, loser)`` int64 rows, in question order, form a
    DAG whose RC set contains *surviving*.

    Raises:
        InvalidParameterError: if *surviving* is not an independent set of
            the question graph (then no orientation can keep all of them).
    """
    survivors = set(surviving)
    ranked = list(survivors) + [e for e in elements if e not in survivors]
    rank = {element: position for position, element in enumerate(ranked)}
    pairs = np.sort(as_pairs(questions), axis=1)
    both = np.isin(pairs, list(survivors)).all(axis=1)
    if both.any():
        raise InvalidParameterError(
            f"{sorted(survivors)} is not independent: edge "
            f"{tuple(pairs[both.argmax()].tolist())} connects two of its members"
        )
    ranks = np.array([rank[e] for e in pairs.ravel().tolist()], np.int64).reshape(-1, 2)
    winners = np.where(ranks[:, 0] < ranks[:, 1], pairs[:, 0], pairs[:, 1])
    return np.column_stack((winners, pairs.sum(axis=1) - winners))


def expected_remaining_candidates(
    elements: Iterable[Element], questions: Iterable[Question]
) -> float:
    """``E[R]`` of the question graph under a uniform history (Lemma 4).

    Under a uniform history the probability that an element with degree
    ``d`` wins all of its comparisons is ``1 / (d + 1)``, so by linearity of
    expectation ``E[R] = sum_v 1 / (d_v + 1)``.
    """
    adjacency = _adjacency(elements, questions)
    return sum(1.0 / (len(neighbors) + 1) for neighbors in adjacency.values())


def degree_sequence(
    elements: Iterable[Element], questions: Iterable[Question]
) -> Tuple[int, ...]:
    """Sorted (descending) degree sequence of the question graph."""
    adjacency = _adjacency(elements, questions)
    return tuple(sorted((len(n) for n in adjacency.values()), reverse=True))
