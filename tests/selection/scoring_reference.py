"""Algorithm 2 as it ran on adjacency sets, kept as a test reference.

:class:`ReferenceGraph` is the evidence store :class:`AnswerGraph` had
before its directed keys became its only store: per-element sets of
winners and losers, linked one recorded row at a time, a dict-based Kahn
sort (:meth:`ReferenceGraph.topological_order`) and a closure over Python
int bitsets (:meth:`ReferenceGraph.transitive_wins`).
:func:`reference_score_candidates` is the energy transfer that walked
them.  ``tests/selection/test_scoring_differential.py`` records the same
answers into both and asks for the same scores, bit for bit.
"""

from typing import Dict, List, Set

from repro.errors import InconsistentAnswersError


class ReferenceGraph:
    """Each element's winners and losers as Python sets (no validation)."""

    def __init__(self, n):
        self.elements = frozenset(range(n))
        self.beat: Dict[int, Set[int]] = {e: set() for e in self.elements}
        self.beaten_by: Dict[int, Set[int]] = {e: set() for e in self.elements}

    def record_pairs(self, rows):
        for winner, loser in rows:
            self.beat[winner].add(loser)
            self.beaten_by[loser].add(winner)

    def remaining_candidates(self) -> Set[int]:
        return {e for e, winners in self.beaten_by.items() if not winners}

    def topological_order(self) -> List[int]:
        """Elements losers-first (Kahn's algorithm on loser -> winner)."""
        in_degree = {e: len(self.beat[e]) for e in self.elements}
        frontier = [e for e, d in in_degree.items() if d == 0]
        order: List[int] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for winner in self.beaten_by[node]:
                in_degree[winner] -= 1
                if in_degree[winner] == 0:
                    frontier.append(winner)
        if len(order) != len(self.elements):
            raise InconsistentAnswersError(
                "the answer graph contains a preference cycle"
            )
        return order

    def transitive_wins(self) -> Dict[int, int]:
        """How many elements each element beats, explicitly or not."""
        order = self.topological_order()
        index = {element: i for i, element in enumerate(order)}
        beaten_mask: Dict[int, int] = {}
        for element in order:
            mask = 0
            for loser in self.beat[element]:
                mask |= beaten_mask[loser] | (1 << index[loser])
            beaten_mask[element] = mask
        return {e: bin(mask).count("1") for e, mask in beaten_mask.items()}


def reference_score_candidates(graph: ReferenceGraph) -> Dict[int, float]:
    """Algorithm 2: elements in ascending transitive-wins order, each
    passing its energy to its conquerors in equal shares."""
    elements = graph.elements
    energy = {e: 1.0 / len(elements) for e in elements}
    wins = graph.transitive_wins()
    for element in sorted(elements, key=lambda e: wins[e]):
        conquerors = frozenset(graph.beaten_by[element])
        if not conquerors:
            continue
        share = energy[element] / len(conquerors)
        for conqueror in conquerors:
            energy[conqueror] += share
        energy[element] = 0.0
    return {element: energy[element] for element in graph.remaining_candidates()}


def reference_best_scored(graph: ReferenceGraph) -> int:
    scores = reference_score_candidates(graph)
    return max(scores, key=lambda element: (scores[element], -element))
