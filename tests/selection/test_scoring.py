"""Tests for the Appendix B.2 scoring function (Algorithm 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.permutations import p_max
from repro.graphs.answer_graph import AnswerGraph
from repro.errors import InconsistentAnswersError
from repro.selection.scoring import (
    best_scored,
    most_wins,
    score_candidates,
    transitive_wins,
)
from repro.types import Answer


def fig17_graph() -> AnswerGraph:
    """The example of Figures 17(a)-(c): 5 elements a..e = 0..4."""
    a, b, c, d, e = range(5)
    graph = AnswerGraph(range(5))
    graph.record_all(
        [
            Answer(winner=c, loser=a),
            Answer(winner=d, loser=a),
            Answer(winner=d, loser=b),
            Answer(winner=e, loser=d),
        ]
    )
    return graph


class TestPaperExample:
    def test_fig17_energies(self):
        """The worked example ends with energy 3/10 on c and 7/10 on e."""
        scores = score_candidates(fig17_graph())
        assert set(scores) == {2, 4}  # c and e are the remaining candidates
        assert scores[2] == pytest.approx(3 / 10)
        assert scores[4] == pytest.approx(7 / 10)


class TestTransitiveWins:
    def test_transitive_wins_fig17(self):
        """Figure 17 commentary: element e 'has won over three elements;
        implicitly or explicitly'."""
        a, b, c, d, e = range(5)
        wins = transitive_wins(fig17_graph())
        assert wins[e] == 3  # d explicitly; a, b implicitly
        assert wins[d] == 2
        assert wins[c] == 1
        assert wins[a] == wins[b] == 0

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_transitive_wins_matches_reachability(self, n, data):
        """wins(v) equals the number of elements reachable from v through
        the 'beat' relation, for random orderly DAGs."""
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
            # The lower id wins, so the graph is a DAG by construction.
            graph.record(Answer(winner=low, loser=high))
        wins = transitive_wins(graph)
        beat = {}
        for winner, loser in graph.sorted_answers().tolist():
            beat.setdefault(winner, []).append(loser)

        def reachable(start):
            seen = set()
            stack = [start]
            while stack:
                for loser in beat.get(stack.pop(), ()):
                    if loser not in seen:
                        seen.add(loser)
                        stack.append(loser)
            return seen

        for element in range(n):
            assert wins[element] == len(reachable(element))


class TestBasicProperties:
    def test_no_answers_gives_uniform_scores(self):
        graph = AnswerGraph(range(4))
        scores = score_candidates(graph)
        assert set(scores) == set(range(4))
        assert all(s == pytest.approx(0.25) for s in scores.values())

    def test_only_remaining_candidates_scored(self):
        scores = score_candidates(fig17_graph())
        assert set(scores) == fig17_graph().remaining_candidates()

    def test_scores_sum_to_one(self):
        assert sum(score_candidates(fig17_graph()).values()) == pytest.approx(1.0)

    def test_scores_are_positive(self):
        assert all(s > 0 for s in score_candidates(fig17_graph()).values())

    def test_clear_winner_takes_all(self):
        graph = AnswerGraph(range(3))
        graph.record_all([Answer(winner=0, loser=1), Answer(winner=0, loser=2)])
        scores = score_candidates(graph)
        assert scores == {0: pytest.approx(1.0)}


def random_dag(n, data):
    """A random answer DAG oriented by a hidden permutation (hence acyclic)."""
    order = data.draw(st.permutations(list(range(n))))
    rank = {e: i for i, e in enumerate(order)}
    pairs = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] < t[1]
            ),
            max_size=n * (n - 1) // 2,
        )
    )
    graph = AnswerGraph(range(n))
    for a, b in pairs:
        winner = a if rank[a] < rank[b] else b
        loser = b if winner == a else a
        graph.record(Answer(winner=winner, loser=loser))
    return graph


class TestAgainstExactProbabilities:
    @given(st.integers(2, 7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_support_matches_p_max(self, n, data):
        """Scores are positive exactly on the elements with positive MAX
        probability (the remaining candidates)."""
        graph = random_dag(n, data)
        scores = score_candidates(graph)
        exact = p_max(graph)
        positive_score = set(scores)
        positive_probability = {e for e, prob in exact.items() if prob > 0}
        assert positive_score == positive_probability

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_scores_always_sum_to_one(self, n, data):
        graph = random_dag(n, data)
        assert sum(score_candidates(graph).values()) == pytest.approx(1.0)

    def test_exact_on_two_candidate_chain(self):
        """For graphs where one candidate beat k elements and the other
        none, the surrogate and exact probabilities agree qualitatively:
        more wins => higher score."""
        graph = AnswerGraph(range(4))
        graph.record_all([Answer(winner=0, loser=1), Answer(winner=0, loser=2)])
        scores = score_candidates(graph)
        exact = p_max(graph)
        assert scores[0] > scores[3]
        assert exact[0] > exact[3]


class TestMostWins:
    def cyclic_graph(self) -> AnswerGraph:
        """1 > 2 > 3 > 1 plus 3 > 0: element 3 has two wins, 1 and 2 one."""
        graph = AnswerGraph(range(4))
        graph.record_all(
            [
                Answer(winner=1, loser=2),
                Answer(winner=2, loser=3),
                Answer(winner=3, loser=1),
                Answer(winner=3, loser=0),
            ]
        )
        return graph

    def test_most_recorded_wins_on_a_cycle_the_scoring_rejects(self):
        graph = self.cyclic_graph()
        with pytest.raises(InconsistentAnswersError):
            best_scored(graph)
        assert most_wins(graph) == 3

    def test_ties_go_to_the_lower_id(self):
        graph = AnswerGraph(range(5))
        graph.record_all(
            [
                Answer(winner=4, loser=2),
                Answer(winner=2, loser=1),
                Answer(winner=1, loser=4),
            ]
        )
        assert most_wins(graph) == 1
        assert most_wins(AnswerGraph(range(3))) == 0
