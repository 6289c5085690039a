"""Tests for the answer DAG (Section 4, Figure 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InconsistentAnswersError, InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph, peel_passes
from repro.types import Answer


def fig7_graph() -> AnswerGraph:
    """The DAG of Figure 7(a): answers {a>b, c>b, d>c, d>a, d>b}."""
    a, b, c, d = 0, 1, 2, 3
    graph = AnswerGraph([a, b, c, d])
    graph.record_all(
        [
            Answer(winner=a, loser=b),
            Answer(winner=c, loser=b),
            Answer(winner=d, loser=c),
            Answer(winner=d, loser=a),
            Answer(winner=d, loser=b),
        ]
    )
    return graph


class TestConstruction:
    def test_needs_elements(self):
        with pytest.raises(InvalidParameterError):
            AnswerGraph([])

    @pytest.mark.parametrize(
        "elements, outside",
        [([0, 1, 2, 3, 4, 5, 6, 9], "9"), ([1, 2], "2"), ([-1, 0], "-1")],
    )
    def test_elements_must_be_0_to_n_minus_1(self, elements, outside):
        with pytest.raises(InvalidParameterError, match=f"; {outside} is not"):
            AnswerGraph(elements)

    def test_any_iterable_of_0_to_n_minus_1(self):
        assert AnswerGraph((2, 0, 1)).elements == frozenset(range(3))
        assert AnswerGraph(np.arange(4)).elements == frozenset(range(4))
        assert AnswerGraph(range(5)).elements == frozenset(range(5))

    @pytest.mark.parametrize(
        "elements",
        [[0, 1, 1], [0.0, 1.0], [True, 1], [False, 1], [np.bool_(True), 0], "01", 3],
    )
    def test_repeats_non_integers_and_non_iterables_rejected(self, elements):
        with pytest.raises(InvalidParameterError):
            AnswerGraph(elements)

    def test_ranges_not_from_zero_are_checked(self):
        with pytest.raises(InvalidParameterError, match="; 3 is not"):
            AnswerGraph(range(1, 4))
        with pytest.raises(InvalidParameterError):
            AnswerGraph(range(0))

    def test_record_unknown_element_rejected(self):
        graph = AnswerGraph([0, 1])
        with pytest.raises(InvalidParameterError):
            graph.record(Answer(winner=0, loser=7))

    def test_duplicate_answer_is_idempotent(self):
        graph = AnswerGraph([0, 1])
        graph.record(Answer(winner=0, loser=1))
        graph.record(Answer(winner=0, loser=1))
        assert graph.n_answers == 1

    def test_contradicting_answer_rejected(self):
        graph = AnswerGraph([0, 1])
        graph.record(Answer(winner=0, loser=1))
        with pytest.raises(InconsistentAnswersError):
            graph.record(Answer(winner=1, loser=0))


class TestBulkRecording:
    def test_array_rows_match_answer_records(self):
        rows = np.array([[0, 1], [2, 1], [3, 2], [3, 0], [3, 1]], np.int64)
        graph = AnswerGraph(range(4))
        graph.record_pairs(rows)
        assert np.array_equal(graph.sorted_answers(), fig7_graph().sorted_answers())
        assert graph.n_answers == 5

    def test_repeated_rows_are_idempotent(self):
        graph = AnswerGraph(range(3))
        graph.record_pairs(np.array([[0, 1], [0, 1], [2, 1]]))
        assert graph.n_answers == 2

    def test_opposite_direction_row_rejected(self):
        graph = AnswerGraph(range(3))
        graph.record_pairs(np.array([[0, 1]]))
        with pytest.raises(InconsistentAnswersError):
            graph.record_pairs(np.array([[2, 1], [1, 0]]))
        # Rows before the rejected one stay recorded, and are counted.
        assert graph.sorted_answers().tolist() == [[0, 1], [2, 1]]
        assert graph.n_answers == 2

    def test_opposite_direction_within_one_column_rejected(self):
        graph = AnswerGraph(range(2))
        with pytest.raises(InconsistentAnswersError):
            graph.record_pairs(np.array([[0, 1], [1, 0]]))

    @pytest.mark.parametrize("row", [[0, 7], [7, 0], [1, 1]])
    def test_unknown_or_self_pair_row_rejected(self, row):
        graph = AnswerGraph(range(3))
        with pytest.raises(InvalidParameterError):
            graph.record_pairs(np.array([row]))
        assert graph.n_answers == 0
        assert graph.remaining_candidates() == {0, 1, 2}

    @pytest.mark.parametrize(
        "rows",
        [[(0,)], [(0, 1, 2)], [(0, 1, 2, 3)], [(0, 1), (2,)], [0, 1], [(1.9, 0)]],
        ids=["1-item", "3-item", "4-item", "ragged", "flat", "float"],
    )
    def test_rows_that_are_not_pairs_rejected(self, rows):
        """A malformed row is rejected, never reshaped into other answers
        (nor truncated: ``1.9 > 0`` is not recorded as ``1 > 0``)."""
        graph = AnswerGraph(range(4))
        with pytest.raises(InvalidParameterError, match="pairs"):
            graph.record_pairs(rows)
        assert graph.n_answers == 0

    def test_empty_rows_record_nothing(self):
        graph = AnswerGraph(range(2))
        graph.record_pairs([])
        graph.record_pairs(np.empty((0, 2), np.int64))
        assert graph.n_answers == 0

    def test_record_all_goes_through_the_bulk_check(self):
        graph = AnswerGraph(range(2))
        graph.record_all([Answer(winner=0, loser=1)])
        with pytest.raises(InconsistentAnswersError):
            graph.record_all([Answer(winner=1, loser=0)])


class TestRemainingCandidates:
    def test_fig7_rc_is_the_max(self):
        """In Figure 7(a) element d never lost: RC = {d} and d is the MAX."""
        assert fig7_graph().remaining_candidates() == {3}

    def test_no_answers_means_everyone_remains(self):
        graph = AnswerGraph(range(5))
        assert graph.remaining_candidates() == set(range(5))

    def test_losing_once_eliminates(self):
        graph = AnswerGraph(range(3))
        graph.record(Answer(winner=0, loser=2))
        assert graph.remaining_candidates() == {0, 1}


class TestQueries:
    def test_sorted_answers(self):
        rows = fig7_graph().sorted_answers()
        assert rows.dtype == np.int64
        assert rows.tolist() == [[0, 1], [2, 1], [3, 0], [3, 1], [3, 2]]

    def test_sorted_answers_round_trip(self):
        graph = fig7_graph()
        clone = AnswerGraph(graph.elements)
        clone.record_pairs(graph.sorted_answers())
        assert np.array_equal(clone.sorted_answers(), graph.sorted_answers())
        assert clone.remaining_candidates() == graph.remaining_candidates()


class TestTopology:
    def test_layers_fig7(self):
        """d is on top, a and c one below it (b has no wins)."""
        winners, losers, passes = fig7_graph().layered_answers()
        assert list(zip(winners.tolist(), losers.tolist(), passes.tolist())) == [
            (0, 1, 2), (2, 1, 2), (3, 0, 1), (3, 1, 1), (3, 2, 1),
        ]

    def test_cycle_detection(self):
        graph = AnswerGraph(range(3))
        graph.record(Answer(winner=0, loser=1))
        graph.record(Answer(winner=1, loser=2))
        graph.record(Answer(winner=2, loser=0))
        with pytest.raises(InconsistentAnswersError):
            graph.validate_acyclic()
        with pytest.raises(InconsistentAnswersError):
            graph.layered_answers()


class Cycle(Exception):
    """The walk came back to an element it is still inside."""


def depth_from_top(winners, losers):
    """Each winner's depth by a memoized walk up its conquerors, or
    ``None`` when the edges hold a cycle."""
    conquerors = {}
    for winner, loser in zip(winners, losers):
        conquerors.setdefault(loser, []).append(winner)
    depth, visiting = {}, set()

    def visit(node):
        if node in depth:
            return depth[node]
        if node in visiting:
            raise Cycle
        visiting.add(node)
        depth[node] = 1 + max((visit(c) for c in conquerors.get(node, ())), default=0)
        return depth[node]

    try:
        return [visit(winner) for winner in winners]
    except Cycle:
        return None


@st.composite
def edge_columns(draw):
    """Edges over ``range(size)``: a DAG oriented by a hidden order, with
    some edges optionally reversed (which may close cycles)."""
    size = draw(st.integers(2, 25))
    rank = draw(st.permutations(range(size)))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            unique=True,
            max_size=50,
        )
    )
    flip = draw(st.booleans())
    rows = []
    for a, b in pairs:
        winner, loser = (a, b) if rank[a] < rank[b] else (b, a)
        if flip and draw(st.booleans()):
            winner, loser = loser, winner
        rows.append((winner, loser))
    return np.array(rows, np.int64).reshape(-1, 2), size


class TestPeelPasses:
    @settings(max_examples=300, deadline=None)
    @given(column=edge_columns())
    def test_pass_is_the_winners_depth_and_zero_means_a_cycle(self, column):
        rows, size = column
        winners, losers = rows[:, 0], rows[:, 1]
        passes = peel_passes(winners, losers, size)
        expected = depth_from_top(winners.tolist(), losers.tolist())
        if expected is None:
            assert not passes.all()
        else:
            assert passes.tolist() == expected

    def test_a_cycle_leaves_zeros_on_and_below_it(self):
        """3 > 0 > 1 > 2 > 0, then 2 > 4: only 3's edge peels."""
        winners, losers = np.array([3, 0, 1, 2, 2]), np.array([0, 1, 2, 0, 4])
        assert peel_passes(winners, losers, 5).tolist() == [1, 0, 0, 0, 0]

    def test_no_edges(self):
        empty = np.empty(0, np.int64)
        assert peel_passes(empty, empty, 3).tolist() == []
