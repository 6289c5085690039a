"""The DAG representation of comparison answers (Section 4, Figure 7).

Following the paper's convention, a directed edge from node ``b`` to node
``a`` records the answer ``a > b`` — edges point from loser to winner.  The
*Remaining Candidates* (RC) set of the DAG is then the set of nodes with no
outgoing edge (Definition 5): the elements that have not lost any comparison
and are still candidates for the MAX.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import InconsistentAnswersError, InvalidParameterError
from repro.types import (
    Answer,
    Element,
    Question,
    Questions,
    as_pairs,
    normalize_question,
)


#: Each element's set of neighbours in one direction of the win relation.
Adjacency = Dict[Element, Set[Element]]


class AnswerGraph:
    """Mutable DAG of resolved comparison answers over a fixed element set.

    The graph enforces *direct* consistency on every insert (the same pair
    cannot be answered both ways); full acyclicity — which the Reliable
    Worker Layer guarantees for its output — can be checked explicitly with
    :meth:`validate_acyclic`.

    Answers are recorded a column at a time: each is a directed key
    ``winner * n + loser`` over element positions, and each loser is
    marked in a lost mask.  The per-element adjacency sets that the
    structural readers walk are built from the recorded rows, in
    recording order, only when a reader first asks.
    """

    def __init__(self, elements: Iterable[Element]) -> None:
        self._elements: FrozenSet[Element] = frozenset(elements)
        if not self._elements:
            raise InvalidParameterError("an answer graph needs at least one element")
        n = self._n = len(self._elements)
        #: Position of each element, or ``None`` when the elements are
        #: ``0 .. n-1`` and an element is its own position.
        self._position: Optional[Dict[Element, int]] = None
        identity = isinstance(elements, range) and elements == range(n)
        if not identity and (
            min(self._elements) != 0 or max(self._elements) != n - 1
        ):
            self._position = {e: i for i, e in enumerate(sorted(self._elements))}
        #: Directed keys ``winner * n + loser`` of the recorded answers.
        self._keys: Set[int] = set()
        #: Whether each position has lost a comparison.
        self._lost = np.zeros(n, bool)
        #: Accepted ``(winner, loser)`` rows, in order, until the adjacency
        #: sets exist; afterwards new rows go straight into them.
        self._log: List[np.ndarray] = []
        #: losers of each element (x -> set of elements x beat) and winners
        #: of each (x -> set of elements that beat x, the out-neighbors of
        #: x in the paper's loser -> winner orientation).
        self._beat: Optional[Adjacency] = None
        self._beaten_by: Optional[Adjacency] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def record(self, answer: Answer) -> None:
        """Add one answer (see :meth:`record_pairs`)."""
        self.record_pairs(((answer.winner, answer.loser),))

    def record_all(self, answers: Iterable[Answer]) -> None:
        """Record a batch of answers (see :meth:`record_pairs`)."""
        rows = [(answer.winner, answer.loser) for answer in answers]
        flat = np.fromiter(chain.from_iterable(rows), np.int64, 2 * len(rows))
        self.record_pairs(flat.reshape(-1, 2))

    def record_pairs(
        self, pairs: Questions, *, validated: bool = False
    ) -> None:
        """Record ``(winner, loser)`` rows in order, e.g. a ``(k, 2)`` int
        array.  Duplicate identical answers are idempotent.

        Rows before a rejected one stay recorded.  With *validated* the
        caller vouches that every row pairs two distinct known elements
        and that no two rows share a pair (what
        :func:`repro.engine.session.submit_rounds` checks); only the
        check against earlier answers runs.

        Raises:
            InvalidParameterError: if an element is unknown or a row
                compares an element with itself.
            InconsistentAnswersError: if the same pair was previously
                answered in the opposite direction.
        """
        rows = as_pairs(pairs)
        winners, losers = rows[:, 0], rows[:, 1]
        if self._position is not None or not validated:
            winners, losers = self._positions(winners), self._positions(losers)
        if not validated:
            bad = (winners == losers) | (winners < 0) | (losers < 0)
            if bad.any():
                first = int(bad.argmax())
                winners, losers = winners[:first], losers[:first]
                self.record_keyed(
                    rows[:first], losers, *directed_keys(winners, losers, self._n),
                    may_repeat_pairs=True,
                )
                winner, loser = rows[first].tolist()
                if winner == loser:
                    raise InvalidParameterError(
                        f"answer ({winner} > {loser}) compares an element "
                        f"with itself"
                    )
                raise InvalidParameterError(
                    f"answer ({winner} > {loser}) involves elements outside "
                    f"the collection"
                )
        self.record_keyed(
            rows, losers, *directed_keys(winners, losers, self._n),
            may_repeat_pairs=not validated,
        )

    def _positions(self, column: np.ndarray) -> np.ndarray:
        """Each element's position; ``-1`` for an unknown element."""
        if self._position is None:
            return np.where(column < self._n, column, -1)
        get = self._position.get
        return np.array([get(e, -1) for e in column.tolist()], np.int64)

    def record_keyed(
        self,
        rows: np.ndarray,
        losers: np.ndarray,
        forward: List[int],
        reverse: List[int],
        *,
        may_repeat_pairs: bool = False,
    ) -> None:
        """Record ``(winner, loser)`` rows of known, distinct elements in
        order, stopping at an opposite answer.

        *losers* holds the rows' loser positions, and *forward* /
        *reverse* their :func:`directed_keys` over this graph's size.
        Unless *may_repeat_pairs*, no two rows may share a pair.

        Raises:
            InconsistentAnswersError: if a pair was answered the other
                way, earlier or (with *may_repeat_pairs*) in these rows;
                the rows before it stay recorded.
        """
        keys = self._keys
        if not keys.isdisjoint(reverse) or (
            may_repeat_pairs and not set(forward).isdisjoint(reverse)
        ):
            earlier = set()
            for first, (key, back) in enumerate(zip(forward, reverse)):
                if back in keys or back in earlier:
                    break
                earlier.add(key)
            self.record_keyed(
                rows[:first], losers[:first], forward[:first], reverse[:first]
            )
            winner, loser = rows[first].tolist()
            raise InconsistentAnswersError(
                f"pair ({winner}, {loser}) already answered in the "
                f"opposite direction; the Reliable Worker Layer "
                f"must resolve conflicts"
            )
        before = len(keys)
        keys.update(forward)
        if len(keys) == before:
            return  # empty, or only idempotent repeats
        self._lost[losers] = True
        if self._beat is None:
            self._log.append(rows.copy())
        else:
            self._link(rows)

    def _link(self, rows: np.ndarray) -> None:
        """Add *rows* to the adjacency sets, in order."""
        beat, beaten_by = self._beat, self._beaten_by
        for winner, loser in rows.tolist():
            losers = beat[winner]
            if loser not in losers:  # else an idempotent repeat
                losers.add(loser)
                beaten_by[loser].add(winner)

    def _adjacency(self) -> Tuple[Adjacency, Adjacency]:
        """``(beat, beaten_by)``: each element's losers and winners.

        Built on first use by replaying the recorded rows in order, so the
        sets hold the same elements in the same insertion order as if each
        answer had been linked when it was recorded.
        """
        if self._beat is None:
            self._beat = {e: set() for e in self._elements}
            self._beaten_by = {e: set() for e in self._elements}
            for rows in self._log:
                self._link(rows)
            self._log = []
        return self._beat, self._beaten_by

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
        return len(self._keys)

    def remaining_candidates(self) -> Set[Element]:
        """The RC set (Definition 5): elements with no outgoing edges.

        These are exactly the elements that never lost a comparison, hence
        the surviving candidates for the MAX.
        """
        if self._position is None:
            return set(np.flatnonzero(~self._lost).tolist())
        lost, position = self._lost, self._position
        return {e for e in self._elements if not lost[position[e]]}

    def winners_over(self, element: Element) -> FrozenSet[Element]:
        """Elements that directly beat *element*."""
        return frozenset(self._adjacency()[1][element])

    def losers_to(self, element: Element) -> FrozenSet[Element]:
        """Elements that *element* directly beat."""
        return frozenset(self._adjacency()[0][element])

    def direct_result(self, a: Element, b: Element) -> Optional[Element]:
        """The recorded winner of the pair ``(a, b)``, or ``None`` if unasked."""
        n = self._n
        if self._position is not None:
            i, j = self._position[a], self._position[b]
        elif 0 <= a < n and 0 <= b < n:
            i, j = a, b
        else:
            raise KeyError((a, b))
        if i * n + j in self._keys:
            return a
        if j * n + i in self._keys:
            return b
        return None

    def answered_questions(self) -> Set[Question]:
        """All distinct pairs with a recorded answer, in canonical form."""
        return {
            normalize_question(winner, loser)
            for winner, losers in self._adjacency()[0].items()
            for loser in losers
        }

    def sorted_answers(self) -> np.ndarray:
        """The distinct recorded ``(winner, loser)`` rows, ascending, read
        from the keys (the adjacency sets stay unbuilt)."""
        keys = np.sort(np.fromiter(self._keys, np.int64, len(self._keys)))
        rows = np.column_stack(np.divmod(keys, self._n))
        if self._position is None:
            return rows
        return np.array(sorted(self._elements), dtype=np.int64)[rows]

    def iter_answers(self) -> Iterator[Answer]:
        """Iterate all recorded answers."""
        for winner, losers in self._adjacency()[0].items():
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
        beat, beaten_by = self._adjacency()
        in_degree = {e: len(beat[e]) for e in self._elements}
        frontier = [e for e, d in in_degree.items() if d == 0]
        order: List[Element] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for winner in beaten_by[node]:
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
        beat = self._adjacency()[0]
        for element in order:
            mask = 0
            for loser in beat[element]:
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
        sub.record_pairs(
            [
                (winner, loser)
                for winner, losers in self._adjacency()[0].items()
                if winner in keep
                for loser in losers
                if loser in keep
            ]
        )
        return sub

    def __len__(self) -> int:
        return len(self._elements)

    def __repr__(self) -> str:
        return (
            f"AnswerGraph(|elements|={len(self._elements)}, "
            f"answers={self.n_answers}, "
            f"|RC|={len(self.remaining_candidates())})"
        )


def directed_keys(
    winners: np.ndarray, losers: np.ndarray, n: Union[int, np.ndarray]
) -> Tuple[List[int], List[int]]:
    """The directed keys ``winner * n + loser`` of ``(winner, loser)``
    position rows and their reverses ``loser * n + winner``, as int lists.

    *n* is the graph size, or one size per row when the rows belong to
    several graphs, so a batch over many graphs is keyed in one pass.
    """
    return (winners * n + losers).tolist(), (losers * n + winners).tolist()


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
