"""Tests for the COMPLETE selector (clique of strong candidates)."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.answer_graph import AnswerGraph
from repro.selection.base import SelectionContext
from repro.selection.complete import Complete, _largest_clique_size
from repro.types import Answer


def make_context(candidates, budget, seed=0, evidence=None):
    return SelectionContext(
        budget=budget,
        candidates=tuple(candidates),
        evidence=evidence if evidence is not None else AnswerGraph(range(max(candidates) + 1)),
        round_index=0,
        total_rounds=1,
        rng=np.random.default_rng(seed),
    )


class TestCliqueSizing:
    def test_exact_fit(self):
        # 10 candidates, k = 4: C(4,2) + 6 = 12.
        assert _largest_clique_size(10, 12) == 4

    def test_whole_collection_when_budget_is_huge(self):
        assert _largest_clique_size(10, 1000) == 10

    def test_too_small_budget_gives_zero(self):
        # k = 2 needs 1 + (n - 2) questions; with n = 10 that is 9.
        assert _largest_clique_size(10, 8) == 0
        assert _largest_clique_size(10, 9) == 2


class TestStructure:
    def test_covers_every_candidate(self):
        """Each candidate is involved in at least one question (the COMPLETE
        coverage guarantee)."""
        context = make_context(range(10), 12)
        questions = Complete().select(context)
        involved = {e for q in questions for e in q}
        assert involved == set(range(10))

    def test_clique_among_strongest(self):
        """With evidence, the top-scored candidates form the clique."""
        evidence = AnswerGraph(range(6))
        # 4 and 5 beat two eliminated elements each, so they score highest.
        evidence.record_all(
            [
                Answer(winner=4, loser=0),
                Answer(winner=4, loser=1),
                Answer(winner=5, loser=2),
                Answer(winner=5, loser=3),
            ]
        )
        candidates = (4, 5)
        context = make_context(candidates, 1, evidence=evidence)
        questions = Complete().select(context)
        assert questions == [(4, 5)]

    def test_falls_back_to_spread_when_budget_tiny(self):
        """Budget below the coverage threshold degrades to SPREAD."""
        context = make_context(range(10), 4)
        questions = Complete().select(context)
        assert len(questions) == 4
        degrees = Counter(e for q in questions for e in q)
        assert max(degrees.values()) == 1  # a matching, i.e. SPREAD behaviour

    def test_leftover_budget_spent(self):
        context = make_context(range(10), 20)
        questions = Complete().select(context)
        assert len(questions) == 20

    def test_no_questions_for_single_candidate(self):
        assert Complete().select(make_context([3], 10)) == []


class TestContract:
    @given(st.integers(2, 25), st.data())
    @settings(max_examples=40, deadline=None)
    def test_budget_and_distinctness(self, n, data):
        budget = data.draw(st.integers(0, n * (n - 1) // 2 + 10))
        questions = Complete().select(
            make_context(range(n), budget, seed=data.draw(st.integers(0, 30)))
        )
        assert len(questions) <= budget
        assert len(set(questions)) == len(questions)
        assert all(0 <= a < b < n for a, b in questions)

    @given(st.integers(3, 25), st.data())
    @settings(max_examples=40, deadline=None)
    def test_coverage_when_budget_allows(self, n, data):
        budget = data.draw(st.integers(n - 1 + 1, n * (n - 1) // 2))
        questions = Complete().select(make_context(range(n), budget, seed=7))
        involved = {e for q in questions for e in q}
        assert involved == set(range(n))
