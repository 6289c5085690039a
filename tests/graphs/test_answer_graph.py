"""Tests for the answer DAG (Section 4, Figure 7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InconsistentAnswersError, InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph, undirected_question_graph
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
        assert sorted(graph.iter_answers(), key=str) == sorted(
            fig7_graph().iter_answers(), key=str
        )
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
        assert graph.direct_result(1, 2) == 2
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
    def test_direct_result(self):
        graph = fig7_graph()
        assert graph.direct_result(0, 1) == 0
        assert graph.direct_result(1, 0) == 0
        assert graph.direct_result(0, 2) is None

    def test_winners_and_losers(self):
        graph = fig7_graph()
        assert graph.winners_over(1) == frozenset({0, 2, 3})
        assert graph.losers_to(3) == frozenset({0, 1, 2})

    def test_answered_questions_are_canonical(self):
        questions = fig7_graph().answered_questions()
        assert all(a < b for a, b in questions)
        assert len(questions) == 5

    def test_iter_answers_round_trips(self):
        graph = fig7_graph()
        clone = AnswerGraph(graph.elements)
        clone.record_all(graph.iter_answers())
        assert clone.answered_questions() == graph.answered_questions()


class TestTopology:
    def test_topological_order_losers_first(self):
        order = fig7_graph().topological_order()
        position = {element: i for i, element in enumerate(order)}
        # b lost to everyone it met; d beat everyone: b before d.
        assert position[1] < position[3]

    def test_cycle_detection(self):
        graph = AnswerGraph(range(3))
        graph.record(Answer(winner=0, loser=1))
        graph.record(Answer(winner=1, loser=2))
        graph.record(Answer(winner=2, loser=0))
        with pytest.raises(InconsistentAnswersError):
            graph.validate_acyclic()

    def test_transitive_wins_fig17(self):
        """Figure 17 commentary: element e 'has won over three elements;
        implicitly or explicitly'."""
        a, b, c, d, e = range(5)
        graph = AnswerGraph(range(5))
        # Figure 17(a): a lost to c and d; b lost to d; d lost to e.
        graph.record_all(
            [
                Answer(winner=c, loser=a),
                Answer(winner=d, loser=a),
                Answer(winner=d, loser=b),
                Answer(winner=e, loser=d),
            ]
        )
        wins = graph.transitive_wins()
        assert wins[e] == 3  # d explicitly; a, b implicitly
        assert wins[d] == 2
        assert wins[c] == 1
        assert wins[a] == wins[b] == 0

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_transitive_wins_matches_reachability(self, n, data):
        """wins(v) equals the number of elements reachable from v through
        the 'beat' relation, for random orderly DAGs."""
        rank = list(range(n))
        edges = data.draw(
            st.sets(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda t: t[0] < t[1]
                ),
                max_size=n * 2,
            )
        )
        graph = AnswerGraph(range(n))
        for low, high in edges:
            # Orient by rank so the graph is a DAG by construction.
            graph.record(Answer(winner=rank[low], loser=rank[high]))
        wins = graph.transitive_wins()

        def reachable(start):
            seen = set()
            stack = [start]
            while stack:
                node = stack.pop()
                for loser in graph.losers_to(node):
                    if loser not in seen:
                        seen.add(loser)
                        stack.append(loser)
            return seen

        for element in range(n):
            assert wins[element] == len(reachable(element))


class TestRestriction:
    def test_restricted_to_keeps_internal_answers(self):
        graph = fig7_graph()
        sub = graph.restricted_to([0, 1, 2])
        assert sub.answered_questions() == {(0, 1), (1, 2)}

    def test_restricted_to_unknown_elements(self):
        with pytest.raises(InvalidParameterError):
            fig7_graph().restricted_to([0, 99])


class TestUndirectedHelper:
    def test_normalizes_and_dedupes(self):
        nodes, edges = undirected_question_graph([2, 0, 1], [(1, 0), (0, 1), (2, 1)])
        assert nodes == [0, 1, 2]
        assert edges == [(0, 1), (1, 2)]

    def test_rejects_foreign_elements(self):
        with pytest.raises(InvalidParameterError):
            undirected_question_graph([0, 1], [(0, 5)])
