"""Differential test: column recording against a dict-of-sets reference.

:class:`AnswerGraph` records a column with set and vector operations
into directed keys.  ``DictOfSets`` below is the per-edge construction it
replaced, kept as the oracle: every column, accepted or rejected, must
raise the same error in both and leave them with the same answers and the
same RC set.
"""

from typing import Dict, Set

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InconsistentAnswersError, InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph


class DictOfSets:
    """Each element's winners and losers as Python sets, linked per row."""

    def __init__(self, elements):
        self.elements = frozenset(elements)
        self.beaten_by: Dict[int, Set[int]] = {e: set() for e in self.elements}
        self.beat: Dict[int, Set[int]] = {e: set() for e in self.elements}
        self.n_answers = 0

    def record_pairs(self, pairs):
        for winner, loser in pairs:
            if winner == loser:
                raise InvalidParameterError("self pair")
            if winner not in self.elements or loser not in self.elements:
                raise InvalidParameterError("unknown element")
            if winner in self.beat[loser]:
                raise InconsistentAnswersError("opposite direction")
            if loser not in self.beat[winner]:
                self.beat[winner].add(loser)
                self.beaten_by[loser].add(winner)
                self.n_answers += 1

    def remaining_candidates(self):
        return {e for e, winners in self.beaten_by.items() if not winners}

    def sorted_answers(self):
        return sorted(
            [winner, loser] for winner, losers in self.beat.items() for loser in losers
        )


def _outcome(graph, column, **kwargs):
    try:
        graph.record_pairs(column, **kwargs)
    except (InvalidParameterError, InconsistentAnswersError) as error:
        return type(error)
    return None


def _assert_same(graph, reference):
    assert graph.n_answers == reference.n_answers
    assert graph.remaining_candidates() == reference.remaining_candidates()
    assert graph.sorted_answers().tolist() == reference.sorted_answers()


@st.composite
def element_sets(draw):
    """``0 .. n-1`` in any order."""
    return draw(st.permutations(range(draw(st.integers(1, 12)))))


@st.composite
def columns(draw, elements):
    # Unknown elements sit just outside the known ones.
    pool = sorted(set(elements) | {min(elements) - 1, max(elements) + 1, 1000})
    known = st.sampled_from(elements)
    anything = st.sampled_from(pool) if draw(st.booleans()) else known
    rows = draw(st.lists(st.tuples(anything, anything), max_size=8))
    if rows and draw(st.booleans()):
        # Repeat or reverse an earlier row of the same column.
        winner, loser = draw(st.sampled_from(rows))
        rows.append((loser, winner) if draw(st.booleans()) else (winner, loser))
    return rows


class TestColumnsMatchDictOfSets:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_columns(self, data):
        elements = data.draw(element_sets(), label="elements")
        graph, reference = AnswerGraph(elements), DictOfSets(elements)
        for _ in range(data.draw(st.integers(1, 6), label="n_columns")):
            rows = data.draw(columns(elements), label="column")
            column = (
                np.array(rows, np.int64).reshape(-1, 2)
                if data.draw(st.booleans(), label="as_array")
                else rows
            )
            assert _outcome(graph, column) == _outcome(reference, rows)
            _assert_same(graph, reference)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_validated_columns(self, data):
        """Columns of distinct known pairs (what a session submits) skip
        the range and self-pair passes but still meet earlier answers."""
        elements = data.draw(element_sets(), label="elements")
        graph, reference = AnswerGraph(elements), DictOfSets(elements)
        pairs = [(a, b) for a in elements for b in elements if a < b]
        for _ in range(data.draw(st.integers(1, 6), label="n_columns")):
            chosen = data.draw(
                st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
            )
            rows = [
                (a, b) if data.draw(st.booleans()) else (b, a) for a, b in chosen
            ]
            column = np.array(rows, np.int64).reshape(-1, 2)
            assert _outcome(graph, column, validated=True) == _outcome(
                reference, rows
            )
            _assert_same(graph, reference)

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([(0, 1), (2, 1), (1, 0), (3, 2)], InconsistentAnswersError),
            ([(0, 1), (2, 9), (1, 0)], InvalidParameterError),
            ([(0, 1), (2, 2), (1, 0)], InvalidParameterError),
            ([(0, 1), (1, 0), (2, 9)], InconsistentAnswersError),
        ],
    )
    def test_the_first_bad_row_decides(self, rows, error):
        graph, reference = AnswerGraph(range(4)), DictOfSets(range(4))
        assert _outcome(graph, rows) is error
        assert _outcome(reference, rows) is error
        _assert_same(graph, reference)
