"""Differential test: Algorithm 2 on columns against the adjacency sets.

:func:`score_candidates` runs on the evidence's ``(winner, loser)``
columns, a batch of receivers at a time.  ``scoring_reference`` keeps the
adjacency-set version it replaced.  Every golden run rests on the two
summing each score in the same order, so the scores must be equal, not
approximately equal, and so must the transitive wins, the best-scored
element and the rejection of a cycle.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.latency import LinearLatency
from repro.core.tdp import TDPAllocator
from repro.crowd.ground_truth import GroundTruth
from repro.engine.session import MaxSession
from repro.errors import InconsistentAnswersError
from repro.graphs.answer_graph import AnswerGraph
from repro.graphs.tournaments import tournament_graph
from repro.selection.registry import selector_by_name
from repro.selection.scoring import best_scored, score_candidates, transitive_wins
from tests.selection.scoring_reference import (
    ReferenceGraph,
    reference_best_scored,
    reference_score_candidates,
)


def assert_same_scoring(rows, n):
    """Both versions over the same recorded rows agree exactly."""
    graph, reference = AnswerGraph(range(n)), ReferenceGraph(n)
    graph.record_pairs(rows)
    reference.record_pairs(rows.tolist())
    scores, expected = score_candidates(graph), reference_score_candidates(reference)
    assert scores == expected
    assert list(scores) == list(expected)
    wins = reference.transitive_wins()
    assert transitive_wins(graph).tolist() == [wins[e] for e in range(n)]
    assert best_scored(graph) == reference_best_scored(reference)


def oriented(pairs, rank):
    """``(winner, loser)`` rows of *pairs*, the lower rank winning."""
    a, b = pairs[:, 0], pairs[:, 1]
    a_wins = rank[a] < rank[b]
    return np.column_stack((np.where(a_wins, a, b), np.where(a_wins, b, a)))


@st.composite
def dags(draw):
    """``(rows, n)``: an acyclic answer column over ``range(n)``, oriented
    by a hidden order: random pairs, a deep chain with shortcuts, or the
    tournament rounds of a run."""
    n = draw(st.integers(2, 200), label="n")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    rank = rng.permutation(n)
    shape = draw(st.sampled_from(["pairs", "chain", "tournaments"]), label="shape")
    if shape == "pairs":
        m = draw(st.integers(0, min(n * (n - 1) // 2, 3 * n)), label="m")
        pairs = rng.integers(0, n, (m, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    elif shape == "chain":
        order = np.argsort(rank)
        shortcuts = rng.integers(0, n, (draw(st.integers(0, n), label="m"), 2))
        pairs = np.concatenate(
            (np.column_stack((order[:-1], order[1:])), shortcuts)
        )
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    else:
        survivors = np.arange(n)
        columns = []
        while len(survivors) > 1:
            c_next = draw(st.integers(1, len(survivors) - 1), label="c_next")
            questions = tournament_graph(rng.permutation(survivors), c_next)
            columns.append(questions)
            rows = oriented(questions, rank)
            survivors = np.setdiff1d(survivors, rows[:, 1])
        pairs = np.concatenate(columns) if columns else np.empty((0, 2), np.int64)
    return oriented(pairs.astype(np.int64), rank), n


class TestAgainstAdjacencySets:
    @settings(max_examples=300, deadline=None)
    @given(dag=dags())
    def test_random_dags(self, dag):
        rows, n = dag
        assert_same_scoring(rows, n)

    @settings(max_examples=100, deadline=None)
    @given(dag=dags())
    def test_a_cycle_is_rejected_by_both(self, dag):
        """The 3-cycle 0 > 1 > 2 > 0 in place of the answers among 0, 1
        and 2."""
        rows, n = dag
        assume(n >= 3)
        among = (rows < 3).all(axis=1)
        rows = np.concatenate((rows[~among], [[0, 1], [1, 2], [2, 0]]))
        graph, reference = AnswerGraph(range(n)), ReferenceGraph(n)
        graph.record_pairs(rows)
        reference.record_pairs(rows.tolist())
        for reader in (score_candidates, best_scored, transitive_wins):
            with pytest.raises(InconsistentAnswersError):
                reader(graph)
        with pytest.raises(InconsistentAnswersError):
            graph.validate_acyclic()
        with pytest.raises(InconsistentAnswersError):
            reference_score_candidates(reference)

    def test_deep_chain(self):
        """200 levels: one receiver per batch."""
        order = np.random.default_rng(5).permutation(200)
        assert_same_scoring(np.column_stack((order[:-1], order[1:])), 200)

    def test_no_answers(self):
        assert_same_scoring(np.empty((0, 2), np.int64), 7)


@pytest.mark.parametrize("selector", ["CT25", "GREEDY"])
@pytest.mark.parametrize("n, budget, seed", [(60, 150, 0), (90, 200, 1), (40, 70, 2)])
def test_evidence_of_engine_runs(selector, n, budget, seed):
    """Every round's evidence of short CT25 and GREEDY sessions."""
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(n, rng)
    allocation = TDPAllocator().allocate(n, budget, LinearLatency(100, 1))
    session = MaxSession(allocation, selector_by_name(selector), n, rng)
    while not session.done:
        questions = session.pending_questions()
        session.submit([truth.answer(a, b) for a, b in questions.tolist()])
        assert_same_scoring(session.evidence.sorted_answers(), n)
