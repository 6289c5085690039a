"""Tests for the GREEDY and SPREAD+GREEDY selectors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph
from repro.selection.base import SelectionContext
from repro.selection.greedy import Greedy, SpreadGreedy
from repro.types import Answer


def make_context(candidates, budget, seed=0, evidence=None, round_index=0,
                 total_rounds=1):
    return SelectionContext(
        budget=budget,
        candidates=tuple(candidates),
        evidence=evidence if evidence is not None else AnswerGraph(range(max(candidates) + 1)),
        round_index=round_index,
        total_rounds=total_rounds,
        rng=np.random.default_rng(seed),
    )


class TestGreedy:
    def test_pairs_strongest_candidates_first(self):
        """With clear score differences the first question compares the two
        highest-scoring candidates."""
        evidence = AnswerGraph(range(6))
        # 4 beat three elements, 5 beat two, 3 beat one; 0-2 eliminated.
        evidence.record_all(
            [
                Answer(winner=4, loser=0),
                Answer(winner=4, loser=1),
                Answer(winner=5, loser=2),
            ]
        )
        questions = Greedy().select(
            make_context((3, 4, 5), 1, evidence=evidence)
        )
        assert questions == [(4, 5)]

    def test_uniform_scores_still_fill_budget(self):
        questions = Greedy().select(make_context(range(8), 10))
        assert len(questions) == 10
        assert len(set(questions)) == 10

    def test_no_questions_for_single_candidate(self):
        assert Greedy().select(make_context([1], 5)) == []

    @given(st.integers(2, 20), st.data())
    @settings(max_examples=30, deadline=None)
    def test_contract(self, n, data):
        budget = data.draw(st.integers(0, n * (n - 1) // 2 + 5))
        questions = Greedy().select(
            make_context(range(n), budget, seed=data.draw(st.integers(0, 20)))
        )
        assert len(questions) == min(budget, n * (n - 1) // 2)
        assert len(set(questions)) == len(questions)
        assert all(0 <= a < b < n for a, b in questions)


class TestSpreadGreedy:
    def test_name_and_split(self):
        selector = SpreadGreedy()
        assert selector.name == "SG25"
        assert selector.spread_rounds(4) == 1
        assert selector.spread_rounds(8) == 2

    def test_first_round_is_spread(self):
        from collections import Counter

        questions = SpreadGreedy().select(
            make_context(range(10), 5, round_index=0, total_rounds=4)
        )
        degrees = Counter(e for q in questions for e in q)
        assert all(count == 1 for count in degrees.values())

    def test_later_round_is_greedy(self):
        evidence = AnswerGraph(range(4))
        evidence.record_all(
            [Answer(winner=2, loser=0), Answer(winner=3, loser=1)]
        )
        questions = SpreadGreedy().select(
            make_context((2, 3), 1, evidence=evidence, round_index=3,
                         total_rounds=4)
        )
        assert questions == [(2, 3)]

    def test_fraction_validation(self):
        with pytest.raises(InvalidParameterError):
            SpreadGreedy(0.0)
        with pytest.raises(InvalidParameterError):
            SpreadGreedy(1.0)

    def test_registered(self):
        from repro.selection.registry import selector_by_name

        assert selector_by_name("GREEDY").name == "GREEDY"
        assert selector_by_name("SG25").name == "SG25"
