"""The DAG representation of comparison answers (Section 4, Figure 7).

Following the paper's convention, a directed edge from node ``b`` to node
``a`` records the answer ``a > b`` — edges point from loser to winner.  The
*Remaining Candidates* (RC) set of the DAG is then the set of nodes with no
outgoing edge (Definition 5): the elements that have not lost any comparison
and are still candidates for the MAX.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.errors import InconsistentAnswersError, InvalidParameterError
from repro.types import Answer, Element, Question, normalize_question


class AnswerGraph:
    """Mutable DAG of resolved comparison answers over a fixed element set.

    The graph enforces *direct* consistency on every insert (the same pair
    cannot be answered both ways); full acyclicity — which the Reliable
    Worker Layer guarantees for its output — can be checked explicitly with
    :meth:`validate_acyclic`.
    """

    def __init__(self, elements: Iterable[Element]) -> None:
        self._elements: FrozenSet[Element] = frozenset(elements)
        if not self._elements:
            raise InvalidParameterError("an answer graph needs at least one element")
        #: winners of each element: x -> set of elements that beat x
        #: (the out-neighbors of x in the paper's loser -> winner orientation).
        self._beaten_by: Dict[Element, Set[Element]] = {
            e: set() for e in self._elements
        }
        #: losers of each element: x -> set of elements x beat.
        self._beat: Dict[Element, Set[Element]] = {e: set() for e in self._elements}
        self._n_answers = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def record(self, answer: Answer) -> None:
        """Add one answer (see :meth:`record_pairs`)."""
        self.record_pairs(((answer.winner, answer.loser),))

    def record_all(self, answers: Iterable[Answer]) -> None:
        """Record a batch of answers (see :meth:`record_pairs`)."""
        self.record_pairs([(answer.winner, answer.loser) for answer in answers])

    def record_pairs(self, pairs: Iterable[Tuple[Element, Element]]) -> None:
        """Record ``(winner, loser)`` rows in order, e.g. a ``(k, 2)`` int
        array.  Duplicate identical answers are idempotent.

        Rows before a rejected one stay recorded.

        Raises:
            InvalidParameterError: if an element is unknown or a row
                compares an element with itself.
            InconsistentAnswersError: if the same pair was previously
                answered in the opposite direction.
        """
        if isinstance(pairs, np.ndarray):
            pairs = zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())
        beat, beaten_by = self._beat, self._beaten_by
        added = 0
        try:
            for winner, loser in pairs:
                if winner == loser:
                    raise InvalidParameterError(
                        f"answer ({winner} > {loser}) compares an element "
                        f"with itself"
                    )
                if winner in beat[loser]:
                    raise InconsistentAnswersError(
                        f"pair ({winner}, {loser}) already answered in the "
                        f"opposite direction; the Reliable Worker Layer "
                        f"must resolve conflicts"
                    )
                losers = beat[winner]
                if loser not in losers:  # else an idempotent repeat
                    losers.add(loser)
                    beaten_by[loser].add(winner)
                    added += 1
        except KeyError:
            raise InvalidParameterError(
                f"answer ({winner} > {loser}) involves elements outside the "
                f"collection"
            ) from None
        finally:
            self._n_answers += added

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def elements(self) -> FrozenSet[Element]:
        """The full element collection the graph was created over."""
        return self._elements

    @property
    def n_answers(self) -> int:
        """Number of distinct answered pairs."""
        return self._n_answers

    def remaining_candidates(self) -> Set[Element]:
        """The RC set (Definition 5): elements with no outgoing edges.

        These are exactly the elements that never lost a comparison, hence
        the surviving candidates for the MAX.
        """
        return {e for e, winners in self._beaten_by.items() if not winners}

    def winners_over(self, element: Element) -> FrozenSet[Element]:
        """Elements that directly beat *element*."""
        return frozenset(self._beaten_by[element])

    def losers_to(self, element: Element) -> FrozenSet[Element]:
        """Elements that *element* directly beat."""
        return frozenset(self._beat[element])

    def direct_result(self, a: Element, b: Element) -> Optional[Element]:
        """The recorded winner of the pair ``(a, b)``, or ``None`` if unasked."""
        if b in self._beat[a]:
            return a
        if a in self._beat[b]:
            return b
        return None

    def answered_questions(self) -> Set[Question]:
        """All distinct pairs with a recorded answer, in canonical form."""
        return {
            normalize_question(winner, loser)
            for winner, losers in self._beat.items()
            for loser in losers
        }

    def iter_answers(self) -> Iterator[Answer]:
        """Iterate all recorded answers."""
        for winner, losers in self._beat.items():
            for loser in losers:
                yield Answer(winner=winner, loser=loser)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Element]:
        """Elements ordered losers-first (a topological order of the DAG).

        Raises:
            InconsistentAnswersError: if the recorded answers contain a
                preference cycle.
        """
        # Kahn's algorithm on the loser -> winner orientation: sources are
        # elements whose every comparison was a loss... more precisely,
        # elements with no *incoming* edges, i.e. that never beat anyone.
        in_degree = {e: len(self._beat[e]) for e in self._elements}
        frontier = [e for e, d in in_degree.items() if d == 0]
        order: List[Element] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for winner in self._beaten_by[node]:
                in_degree[winner] -= 1
                if in_degree[winner] == 0:
                    frontier.append(winner)
        if len(order) != len(self._elements):
            raise InconsistentAnswersError(
                "the answer graph contains a preference cycle"
            )
        return order

    def validate_acyclic(self) -> None:
        """Raise :class:`InconsistentAnswersError` on any preference cycle."""
        self.topological_order()

    def transitive_wins(self) -> Dict[Element, int]:
        """For each element, how many elements it beats implicitly or
        explicitly (the size of its descendant set in the win relation).

        Used by the Appendix B.2 scoring function to order energy transfers.
        """
        order = self.topological_order()  # losers before winners
        # Descendant sets as integer bitmasks for speed: beaten(v) =
        # union over direct losers u of ({u} | beaten(u)).
        index = {element: i for i, element in enumerate(order)}
        beaten_mask: Dict[Element, int] = {}
        for element in order:
            mask = 0
            for loser in self._beat[element]:
                mask |= beaten_mask[loser] | (1 << index[loser])
            beaten_mask[element] = mask
        return {e: bin(mask).count("1") for e, mask in beaten_mask.items()}

    def restricted_to(self, elements: Iterable[Element]) -> "AnswerGraph":
        """A new graph containing only *elements* and the answers among them."""
        keep = set(elements)
        unknown = keep - self._elements
        if unknown:
            raise InvalidParameterError(f"unknown elements: {sorted(unknown)}")
        sub = AnswerGraph(keep)
        for winner, losers in self._beat.items():
            if winner not in keep:
                continue
            for loser in losers:
                if loser in keep:
                    sub.record(Answer(winner=winner, loser=loser))
        return sub

    def __len__(self) -> int:
        return len(self._elements)

    def __repr__(self) -> str:
        return (
            f"AnswerGraph(|elements|={len(self._elements)}, "
            f"answers={self._n_answers}, "
            f"|RC|={len(self.remaining_candidates())})"
        )


def undirected_question_graph(
    elements: Iterable[Element], questions: Iterable[Question]
) -> Tuple[List[Element], List[Question]]:
    """Normalize a question set into (nodes, canonical unique edges).

    Convenience used by the maxRC machinery, which reasons about the
    *undirected* graph of asked questions.
    """
    nodes = sorted(set(elements))
    node_set = set(nodes)
    edges = set()
    for a, b in questions:
        if a not in node_set or b not in node_set:
            raise InvalidParameterError(
                f"question ({a}, {b}) references elements outside the graph"
            )
        edges.add(normalize_question(a, b))
    return nodes, sorted(edges)
