"""Tests for maxRC / maxIND and expected-RC computations (Section 4, App A)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.questions import tournament_questions
from repro.errors import InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph
from repro.graphs.candidates import (
    degree_sequence,
    expected_remaining_candidates,
    max_independent_set,
    max_remaining_candidates,
    worst_case_answers,
)
from tests.graphs.tournament_oracle import tournament_question_graph


def random_graph(n, data):
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda t: t[0] < t[1]
            ),
            max_size=n * (n - 1) // 2,
        )
    )
    return list(range(n)), sorted(edges)


def brute_force_mis_size(nodes, edges) -> int:
    adjacency = {v: set() for v in nodes}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    best = 0
    for r in range(len(nodes), 0, -1):
        for subset in itertools.combinations(nodes, r):
            subset_set = set(subset)
            if all(not (adjacency[v] & subset_set) for v in subset):
                return r
    return best


def brute_force_max_rc_size(nodes, edges) -> int:
    """maxRC by enumerating every permutation-induced orientation."""
    best = 0
    for order in itertools.permutations(nodes):
        rank = {v: i for i, v in enumerate(order)}
        losers = {a if rank[a] > rank[b] else b for a, b in edges}
        best = max(best, len(nodes) - len(losers))
    return best


class TestMaxIndependentSet:
    def test_square_graph_fig8(self):
        """Figure 8: the 4-cycle a-b-c-d has maxRC = 2 ({a,c} or {b,d})."""
        nodes = [0, 1, 2, 3]
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        mis = max_independent_set(nodes, edges)
        assert len(mis) == 2
        assert mis in ({0, 2}, {1, 3})

    def test_fig7_undirected(self):
        """Figure 7(b): maxIND of the square-with-diagonal is {a, c}."""
        nodes = [0, 1, 2, 3]  # a, b, c, d
        edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
        assert max_independent_set(nodes, edges) == {0, 2}

    def test_empty_graph_everyone_independent(self):
        assert max_independent_set(range(6), []) == set(range(6))

    def test_clique_has_singleton_mis(self):
        nodes = list(range(5))
        edges = [(a, b) for a in nodes for b in nodes if a < b]
        assert len(max_independent_set(nodes, edges)) == 1

    def test_tournament_graph_mis_is_tournament_count(self):
        """A tournament graph G_T(c_prev, c_next) has maxIND = c_next (one
        element per clique) — the fact behind Theorem 3."""
        groups = [[0, 1, 2], [3, 4, 5], [6, 7]]
        edges = tournament_question_graph(groups)
        assert len(max_independent_set(range(8), edges)) == 3

    @given(st.integers(1, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, n, data):
        nodes, edges = random_graph(n, data)
        mis = max_independent_set(nodes, edges)
        # Independence:
        edge_set = set(edges)
        assert all(
            (a, b) not in edge_set
            for a in mis
            for b in mis
            if a < b
        )
        # Maximality:
        assert len(mis) == brute_force_mis_size(nodes, edges)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            max_independent_set([], [])
        with pytest.raises(InvalidParameterError):
            max_independent_set([0, 1], [(0, 5)])
        with pytest.raises(InvalidParameterError):
            max_independent_set([0, 1], [(0, 0)])


class TestTheorem2:
    """maxRC (over answer orientations) equals maxIND."""

    @given(st.integers(1, 6), st.data())
    @settings(max_examples=30, deadline=None)
    def test_max_rc_equals_max_ind(self, n, data):
        nodes, edges = random_graph(n, data)
        assert len(max_remaining_candidates(nodes, edges)) == (
            brute_force_max_rc_size(nodes, edges)
        )


class TestTheorem3:
    """Any graph with maxIND = c_next has at least Q(c_prev, c_next) edges."""

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_edge_lower_bound(self, n, data):
        nodes, edges = random_graph(n, data)
        independence = len(max_independent_set(nodes, edges))
        assert len(edges) >= tournament_questions(n, independence)


class TestWorstCaseAnswers:
    def test_surviving_set_survives(self):
        nodes = [0, 1, 2, 3]
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        answers = worst_case_answers(nodes, edges, surviving={0, 2})
        graph = AnswerGraph(nodes)
        graph.record_pairs(answers)
        graph.validate_acyclic()
        assert graph.remaining_candidates() >= {0, 2}

    def test_every_question_is_answered(self):
        nodes = [0, 1, 2, 3, 4]
        edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
        answers = worst_case_answers(nodes, edges, surviving={0, 2, 4})
        assert len(answers) == len(edges)

    def test_dependent_set_rejected(self):
        with pytest.raises(InvalidParameterError):
            worst_case_answers([0, 1, 2], [(0, 1)], surviving={0, 1})

    @given(st.integers(2, 7), st.data())
    @settings(max_examples=25, deadline=None)
    def test_worst_case_realizes_max_rc(self, n, data):
        """Lemma 2 constructively: the maxIND set is an RC set of some
        orientation."""
        nodes, edges = random_graph(n, data)
        mis = max_independent_set(nodes, edges)
        answers = worst_case_answers(nodes, edges, surviving=mis)
        graph = AnswerGraph(nodes)
        graph.record_pairs(answers)
        graph.validate_acyclic()
        survivors = graph.remaining_candidates()
        assert mis <= survivors
        # Isolated vertices always survive, so equality holds on the nodes
        # that have at least one question.
        questioned = {v for edge in edges for v in edge}
        assert survivors & questioned == mis & questioned


class TestExpectedRemainingCandidates:
    def test_paper_fig16_example(self):
        """Figure 16: the path a-b-c has E[R] = 4/3."""
        assert expected_remaining_candidates(
            [0, 1, 2], [(0, 1), (1, 2)]
        ) == pytest.approx(4 / 3)

    def test_no_questions(self):
        assert expected_remaining_candidates(range(4), []) == 4

    def test_clique(self):
        """A clique keeps exactly one element in expectation... and in fact
        always: sum 1/(d+1) = n * 1/n = 1."""
        nodes = list(range(6))
        edges = [(a, b) for a in nodes for b in nodes if a < b]
        assert expected_remaining_candidates(nodes, edges) == pytest.approx(1.0)

    def test_degree_sequence(self):
        assert degree_sequence([0, 1, 2], [(0, 1), (1, 2)]) == (2, 1, 1)
