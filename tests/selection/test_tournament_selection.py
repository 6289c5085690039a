"""Tests for the Tournament-formation question selector (Section 5.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.questions import fewest_tournaments_within, tournament_questions
from repro.errors import InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph
from repro.selection.base import SelectionContext
from repro.selection.tournament import TournamentFormation


def make_context(candidates, budget, seed=0, round_index=0, total_rounds=1):
    return SelectionContext(
        budget=budget,
        candidates=tuple(candidates),
        evidence=AnswerGraph(range(max(candidates) + 1)),
        round_index=round_index,
        total_rounds=total_rounds,
        rng=np.random.default_rng(seed),
    )


class TestBasics:
    def test_no_questions_for_single_candidate(self):
        assert TournamentFormation().select(make_context([7], 10)).shape == (0, 2)

    def test_no_questions_for_zero_budget(self):
        assert TournamentFormation().select(make_context([1, 2, 3], 0)).shape == (0, 2)

    def test_exact_tournament_budget(self):
        """Budget Q(20, 5) = 30 forms exactly five 4-cliques."""
        questions = TournamentFormation().select(make_context(range(20), 30))
        assert len(questions) == 30

    def test_lavish_budget_forms_single_clique(self):
        questions = TournamentFormation().select(make_context(range(6), 1000))
        assert sorted(map(tuple, questions.tolist())) == [
            (a, b) for a in range(6) for b in range(6) if a < b
        ]

    def test_minimal_budget_pairs_everyone(self):
        """One question per two candidates (the halving round)."""
        questions = TournamentFormation().select(make_context(range(10), 5))
        assert len(questions) == 5
        involved = [e for q in questions for e in q]
        assert len(set(involved)) == 10  # a perfect matching


class TestLeftoverSpending:
    def test_leftover_spent_across_tournaments(self):
        """Budget 35 over 20 candidates: Q(20, 5) = 30 plus 5 extras."""
        questions = TournamentFormation().select(make_context(range(20), 35))
        assert len(questions) == 35

    def test_leftover_unspendable_with_single_tournament(self):
        """With a full clique there is no cross-tournament pair left."""
        questions = TournamentFormation().select(make_context(range(6), 100))
        assert len(questions) == 15  # C(6, 2)

    def test_extras_connect_different_tournaments(self):
        rng_seed = 3
        candidates = tuple(range(20))
        context = make_context(candidates, 35, seed=rng_seed)
        selector = TournamentFormation()
        questions = selector.select(context)
        clique_questions = questions[:30]
        # Rebuild group membership from the clique edges.
        parent = {e: e for e in candidates}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in clique_questions:
            parent[find(a)] = find(b)
        for a, b in questions[30:]:
            assert find(a) != find(b)


class TestDrawChecks:
    """``draw`` runs the context's checks without building a context."""

    @pytest.mark.parametrize(
        "budget, candidates, round_index, total_rounds",
        [(-1, (0, 1), 0, 1), (3, (), 0, 1), (3, (0, 1), 2, 2), (3, (0, 1), -1, 2)],
    )
    def test_invalid_round_fields_rejected(
        self, budget, candidates, round_index, total_rounds
    ):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(InvalidParameterError):
            TournamentFormation().draw(
                budget, candidates, AnswerGraph(range(2)), round_index,
                total_rounds, rng,
            )
        assert rng.bit_generator.state == before

    def test_a_dealt_round_over_its_budget_is_rejected(self):
        selector = TournamentFormation()
        drawn = selector.draw(
            6, (0, 1, 2, 3), AnswerGraph(range(4)), 0, 1, np.random.default_rng(0)
        )
        candidates, permutation, template, extras, _ = drawn
        with pytest.raises(InvalidParameterError, match="for a budget of 5"):
            selector.deal([(candidates, permutation, template, extras, 5)])


class TestContract:
    @given(st.integers(2, 40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_budget_distinctness_and_canonical_form(self, n, data):
        budget = data.draw(st.integers(0, n * (n - 1) // 2 + 20))
        questions = TournamentFormation().select(
            make_context(range(n), budget, seed=data.draw(st.integers(0, 99)))
        )
        assert len(questions) <= budget
        assert len(set(map(tuple, questions.tolist()))) == len(questions)
        assert all(0 <= a < b < n for a, b in questions)

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=40, deadline=None)
    def test_spends_the_budget_when_pairs_exist(self, n, data):
        max_pairs = n * (n - 1) // 2
        budget = data.draw(st.integers(1, max_pairs + 20))
        questions = TournamentFormation().select(
            make_context(range(n), budget, seed=1)
        )
        assert len(questions) == min(budget, max_pairs)

    @given(st.integers(2, 30), st.data())
    @settings(max_examples=40, deadline=None)
    def test_worst_case_survivors_match_tournament_count(self, n, data):
        """The clique structure guarantees exactly `fewest tournaments
        within budget` winners, regardless of the hidden order."""
        budget = data.draw(st.integers(1, n * (n - 1) // 2))
        expected_tournaments = fewest_tournaments_within(n, budget)
        base_questions = tournament_questions(n, expected_tournaments)
        questions = TournamentFormation().select(
            make_context(range(n), budget, seed=2)
        )
        # Answer everything by the identity order and count survivors.
        losers = {max(a, b) for a, b in questions}
        survivors = n - len(losers)
        # Extras can only reduce the survivor count below the tournament
        # count, never increase it.
        assert survivors <= expected_tournaments
        if len(questions) == base_questions:
            assert survivors == expected_tournaments
