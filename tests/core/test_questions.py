"""Tests for the tournament question-count function Q (Definitions 1-2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.questions import (
    fewest_tournaments_within,
    halving_questions,
    halving_survivors,
    max_useful_budget,
    min_feasible_budget,
    tournament_questions,
    tournament_sizes,
)
from repro.errors import InvalidParameterError


class TestTournamentSizes:
    def test_paper_example_g20_5(self):
        assert tournament_sizes(20, 5) == [4, 4, 4, 4, 4]

    def test_paper_example_g24_5(self):
        # Figure 3: four 5-element tournaments and one 4-element tournament.
        assert tournament_sizes(24, 5) == [5, 5, 5, 5, 4]

    def test_single_tournament(self):
        assert tournament_sizes(7, 1) == [7]

    def test_all_singletons(self):
        assert tournament_sizes(4, 4) == [1, 1, 1, 1]

    def test_sizes_sum_to_element_count(self):
        for c_prev in range(1, 40):
            for c_next in range(1, c_prev + 1):
                assert sum(tournament_sizes(c_prev, c_next)) == c_prev

    def test_sizes_differ_by_at_most_one(self):
        for c_prev in range(1, 40):
            for c_next in range(1, c_prev + 1):
                sizes = tournament_sizes(c_prev, c_next)
                assert max(sizes) - min(sizes) <= 1

    def test_rejects_more_tournaments_than_elements(self):
        with pytest.raises(InvalidParameterError):
            tournament_sizes(3, 4)

    def test_rejects_zero_tournaments(self):
        with pytest.raises(InvalidParameterError):
            tournament_sizes(3, 0)


class TestTournamentQuestions:
    def test_paper_example_g20_5(self):
        assert tournament_questions(20, 5) == 30

    def test_paper_example_g24_5(self):
        assert tournament_questions(24, 5) == 46

    def test_fig5_transition(self):
        # Figure 5: reaching 25 elements from 100 costs Q(100, 25) = 150.
        assert tournament_questions(100, 25) == 150

    def test_pairing_round(self):
        assert tournament_questions(24, 12) == 12

    def test_complete_tournament(self):
        assert tournament_questions(5, 1) == 10

    def test_no_op_transition_costs_nothing(self):
        assert tournament_questions(9, 9) == 0

    def test_equals_clique_sum(self):
        for c_prev in range(1, 30):
            for c_next in range(1, c_prev + 1):
                expected = sum(
                    s * (s - 1) // 2 for s in tournament_sizes(c_prev, c_next)
                )
                assert tournament_questions(c_prev, c_next) == expected

    @given(st.integers(1, 200), st.data())
    def test_at_least_one_question_per_elimination(self, c_prev, data):
        c_next = data.draw(st.integers(1, c_prev))
        assert tournament_questions(c_prev, c_next) >= c_prev - c_next

    @given(st.integers(2, 150), st.data())
    def test_non_increasing_in_target_count(self, c_prev, data):
        c_next = data.draw(st.integers(1, c_prev - 1))
        assert tournament_questions(c_prev, c_next) >= tournament_questions(
            c_prev, c_next + 1
        )

    @given(st.integers(1, 60), st.integers(1, 60))
    def test_multiple_case_matches_equation_one(self, c_next, multiplier):
        """When c_prev is a multiple of c_next, equation (1) applies."""
        c_prev = c_next * multiplier
        group = multiplier
        assert (
            tournament_questions(c_prev, c_next)
            == group * (group - 1) // 2 * c_next
        )


class TestBudgetBounds:
    def test_min_feasible_budget_theorem1(self):
        assert min_feasible_budget(1) == 0
        assert min_feasible_budget(2) == 1
        assert min_feasible_budget(500) == 499

    def test_max_useful_budget_is_complete_tournament(self):
        assert max_useful_budget(500) == 124750  # the paper's C(500, 2)

    def test_invalid_element_counts(self):
        with pytest.raises(InvalidParameterError):
            min_feasible_budget(0)
        with pytest.raises(InvalidParameterError):
            max_useful_budget(-1)


class TestFewestTournaments:
    def test_exact_fit(self):
        # Q(20, 5) = 30, so a budget of exactly 30 allows 5 tournaments.
        assert fewest_tournaments_within(20, 30) == 5

    def test_one_less_budget_needs_more_tournaments(self):
        assert fewest_tournaments_within(20, 29) == 6

    def test_huge_budget_gives_single_tournament(self):
        assert fewest_tournaments_within(20, 10_000) == 1

    def test_zero_budget_keeps_everyone(self):
        assert fewest_tournaments_within(20, 0) == 20

    def test_single_element(self):
        assert fewest_tournaments_within(1, 0) == 1

    @given(st.integers(1, 120), st.integers(0, 2000))
    def test_result_is_minimal_and_feasible(self, c_prev, budget):
        c_next = fewest_tournaments_within(c_prev, budget)
        assert tournament_questions(c_prev, c_next) <= budget
        if c_next > 1:
            assert tournament_questions(c_prev, c_next - 1) > budget

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            fewest_tournaments_within(5, -1)

    def test_memoized_without_caching_errors(self):
        fewest_tournaments_within.cache_clear()
        assert fewest_tournaments_within(24, 46) == 5
        assert fewest_tournaments_within(24, 46) == 5
        info = fewest_tournaments_within.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        for _ in range(2):
            with pytest.raises(InvalidParameterError):
                fewest_tournaments_within(0, 3)
            with pytest.raises(InvalidParameterError):
                fewest_tournaments_within(5, -1)


class TestHalving:
    def test_even_count(self):
        assert halving_questions(24) == 12
        assert halving_survivors(24) == 12

    def test_odd_count_gives_bye(self):
        assert halving_questions(7) == 3
        assert halving_survivors(7) == 4

    def test_consistent_with_q_function(self):
        for c in range(2, 50):
            survivors = halving_survivors(c)
            assert tournament_questions(c, survivors) == halving_questions(c)

    def test_single_element(self):
        assert halving_questions(1) == 0
        assert halving_survivors(1) == 1
