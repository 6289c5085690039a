"""The DAG representation of comparison answers (Section 4, Figure 7).

Following the paper's convention, a directed edge from node ``b`` to node
``a`` records the answer ``a > b`` — edges point from loser to winner.  The
*Remaining Candidates* (RC) set of the DAG is then the set of nodes with no
outgoing edge (Definition 5): the elements that have not lost any comparison
and are still candidates for the MAX.

The graph stores its answers once, as a set of directed keys with a lost
mask beside it.  Every structural reader runs on the ``(winner, loser)``
columns that :meth:`AnswerGraph.sorted_answers` derives from the keys, and
:func:`peel_passes` is the one cycle check: it layers those columns by each
winner's depth from the top, the order in which Algorithm 2
(:mod:`repro.selection.scoring`) passes energy from losers to winners.
"""

from __future__ import annotations

from itertools import chain
from typing import FrozenSet, Iterable, List, Set, Tuple, Union

import numpy as np

from repro.errors import InconsistentAnswersError, InvalidParameterError
from repro.types import Answer, Element, Questions, as_pairs


class AnswerGraph:
    """Mutable DAG of resolved comparison answers over the elements
    ``0 .. n-1``.

    The graph enforces *direct* consistency on every insert (the same pair
    cannot be answered both ways); full acyclicity — which the Reliable
    Worker Layer guarantees for its output — can be checked explicitly with
    :meth:`validate_acyclic`.

    Answers are recorded a column at a time: each is a directed key
    ``winner * n + loser``, and each loser is marked in a lost mask.  The
    keys are the only record of the answers.
    """

    def __init__(self, elements: Iterable[Element]) -> None:
        n = self._n = _element_count(elements)
        #: Directed keys ``winner * n + loser`` of the recorded answers.
        self._keys: Set[int] = set()
        #: Whether each element has lost a comparison.
        self._lost = np.zeros(n, bool)

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
        n = self._n
        if not validated:
            bad = (
                (winners == losers)
                | (np.minimum(winners, losers) < 0)
                | (np.maximum(winners, losers) >= n)
            )
            if bad.any():
                first = int(bad.argmax())
                self.record_keyed(
                    losers[:first],
                    *directed_keys(winners[:first], losers[:first], n),
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
            losers, *directed_keys(winners, losers, n),
            may_repeat_pairs=not validated,
        )

    def record_keyed(
        self,
        losers: np.ndarray,
        forward: List[int],
        reverse: List[int],
        *,
        may_repeat_pairs: bool = False,
    ) -> None:
        """Record ``(winner, loser)`` rows of known, distinct elements in
        order, stopping at an opposite answer.

        *losers* holds the rows' losers, and *forward* / *reverse* their
        :func:`directed_keys` over this graph's size.  Unless
        *may_repeat_pairs*, no two rows may share a pair.

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
            self.record_keyed(losers[:first], forward[:first], reverse[:first])
            winner, loser = divmod(forward[first], self._n)
            raise InconsistentAnswersError(
                f"pair ({winner}, {loser}) already answered in the "
                f"opposite direction; the Reliable Worker Layer "
                f"must resolve conflicts"
            )
        keys.update(forward)
        self._lost[losers] = True

    def record_new_keys(self, keys: np.ndarray) -> None:
        """Record the directed keys ``winner * n + loser`` of answers to
        pairs this graph does not hold yet, each pair once.

        The caller vouches for all of that (a
        :class:`~repro.engine.session.MaxSession` round that asks only
        candidates does), so nothing is checked.
        """
        self._keys.update(keys.tolist())
        self._lost[keys % self._n] = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def elements(self) -> FrozenSet[Element]:
        """The full element collection the graph was created over."""
        return frozenset(range(self._n))

    @property
    def n_answers(self) -> int:
        """Number of distinct answered pairs."""
        return len(self._keys)

    def remaining_candidates(self) -> Set[Element]:
        """The RC set (Definition 5): elements with no outgoing edges.

        These are exactly the elements that never lost a comparison, hence
        the surviving candidates for the MAX.
        """
        return set(np.flatnonzero(~self._lost).tolist())

    def sorted_keys(self) -> List[int]:
        """The directed keys ``winner * n + loser`` of the distinct
        recorded answers, ascending."""
        return sorted(self._keys)

    def sorted_answers(self) -> np.ndarray:
        """The distinct recorded answers as a ``(k, 2)`` int64 array of
        ``(winner, loser)`` rows, ascending."""
        keys = np.sort(np.fromiter(self._keys, np.int64, len(self._keys)))
        return np.column_stack(np.divmod(keys, self._n))

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def layered_answers(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(winners, losers, passes)``: the columns of
        :meth:`sorted_answers` and each row's :func:`peel_passes` pass.

        Raises:
            InconsistentAnswersError: if the recorded answers contain a
                preference cycle.
        """
        rows = self.sorted_answers()
        winners, losers = rows[:, 0], rows[:, 1]
        passes = peel_passes(winners, losers, self._n)
        if not passes.all():
            raise InconsistentAnswersError(
                "the answer graph contains a preference cycle"
            )
        return winners, losers, passes

    def validate_acyclic(self) -> None:
        """Raise :class:`InconsistentAnswersError` on any preference cycle."""
        self.layered_answers()

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:
        return (
            f"AnswerGraph(|elements|={self._n}, "
            f"answers={self.n_answers}, "
            f"|RC|={len(self.remaining_candidates())})"
        )


def _element_count(elements: Iterable[Element]) -> int:
    """The size ``n`` of *elements*, which must be ``0 .. n-1``.

    A ``range(n)`` is taken as it is.  Anything else is checked value by
    value, under the rules of :func:`repro.types.as_pairs`: every value
    is an integer (a bool or a float is rejected, never converted), and
    none repeats.

    Raises:
        InvalidParameterError: if *elements* is not an iterable of
            distinct integers ``0 .. n-1`` with ``n >= 1``.
    """
    if type(elements) is range and elements.start == 0 and elements.step == 1:
        n = len(elements)
    else:
        try:
            values = list(elements)
        except TypeError:
            raise InvalidParameterError(
                f"an answer graph's elements must be an iterable of "
                f"integers, got {elements!r}"
            ) from None
        seen: Set[Element] = set()
        for value in values:
            if isinstance(value, (bool, np.bool_)) or not isinstance(
                value, (int, np.integer)
            ):
                raise InvalidParameterError(
                    f"an answer graph's elements must be integers, got "
                    f"{value!r}"
                )
            if value in seen:
                raise InvalidParameterError(
                    f"element {value!r} appears more than once in an "
                    f"answer graph's elements"
                )
            seen.add(value)
        n = len(values)
        outside = [v for v in values if not 0 <= v < n]
        if outside:
            raise InvalidParameterError(
                f"an answer graph of {n} elements is over 0 .. {n - 1}; "
                f"{outside[0]!r} is not one of them"
            )
    if not n:
        raise InvalidParameterError("an answer graph needs at least one element")
    return n


def directed_keys(
    winners: np.ndarray, losers: np.ndarray, n: Union[int, np.ndarray]
) -> Tuple[List[int], List[int]]:
    """The directed keys ``winner * n + loser`` of ``(winner, loser)``
    rows and their reverses ``loser * n + winner``, as int lists.

    *n* is the graph size, or one size per row when the rows belong to
    several graphs, so a batch over many graphs is keyed in one pass.
    """
    return (winners * n + losers).tolist(), (losers * n + winners).tolist()


def peel_passes(
    winners: np.ndarray, losers: np.ndarray, size: int
) -> np.ndarray:
    """The pass in which each edge ``winners[i] -> losers[i]`` peels, or
    0 for an edge that never does.

    Elements are in ``range(size)``.  Pass 1 peels every edge whose
    winner lost none of the edges; each later pass peels every edge whose
    winner lost only edges peeled before.  So an edge's pass is its
    winner's depth from the top: one more than the longest chain of wins
    above the winner.  An edge on a cycle never peels, because its winner
    lost the cycle's previous edge, and neither does an edge whose winner
    lost, directly or through others, to an element on a cycle; a graph
    without a cycle always has a source to peel.  So the edges form a
    cycle exactly when a 0 is left.  The peel stops at the first pass
    that peels nothing, and each pass clears only the lost entries it
    set.
    """
    depth = np.zeros(size, np.int64)
    lost = np.zeros(size, bool)
    live_winners, live_losers = winners, losers
    passes = 0
    while len(live_winners):
        passes += 1
        lost[live_losers] = True
        beaten = lost[live_winners]
        lost[live_losers] = False
        if beaten.all():
            depth[live_winners] = 0
            break
        # A winner's last live pass is the one that peels it.
        depth[live_winners] = passes
        live_winners, live_losers = live_winners[beaten], live_losers[beaten]
    return depth[winners]
