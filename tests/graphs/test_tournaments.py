"""Tests for concrete tournament-graph construction.

``TestFormTournaments`` and ``TestQuestionGraph`` pin the list oracle; the
array construction in :mod:`repro.graphs.tournaments` and the selector are
checked against it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.questions import (
    fewest_tournaments_within,
    tournament_questions,
    tournament_sizes,
)
from repro.errors import InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph
from repro.graphs.tournaments import CACHED_TEMPLATE_ROWS, tournament_template
from repro.selection.base import SelectionContext
from repro.selection.tournament import TournamentFormation
from tests.graphs.tournament_oracle import (
    form_tournaments,
    reference_select,
    tournament_question_graph,
)


class TestFormTournaments:
    def test_partition_is_exact(self, rng):
        groups = form_tournaments(list(range(24)), 5, rng)
        flattened = sorted(e for group in groups for e in group)
        assert flattened == list(range(24))

    def test_group_sizes_match_definition(self, rng):
        groups = form_tournaments(list(range(24)), 5, rng)
        assert sorted(len(g) for g in groups) == sorted(tournament_sizes(24, 5))

    def test_single_tournament(self, rng):
        groups = form_tournaments([3, 1, 4], 1, rng)
        assert len(groups) == 1
        assert sorted(groups[0]) == [1, 3, 4]

    def test_deterministic_under_seed(self):
        first = form_tournaments(list(range(30)), 4, np.random.default_rng(9))
        second = form_tournaments(list(range(30)), 4, np.random.default_rng(9))
        assert first == second

    def test_assignment_is_randomized(self):
        results = {
            tuple(
                tuple(g)
                for g in form_tournaments(
                    list(range(12)), 3, np.random.default_rng(seed)
                )
            )
            for seed in range(10)
        }
        assert len(results) > 1

    def test_empty_elements_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            form_tournaments([], 1, rng)

    @given(st.integers(1, 50), st.data())
    @settings(max_examples=30, deadline=None)
    def test_partition_properties(self, n, data):
        n_tournaments = data.draw(st.integers(1, n))
        rng = np.random.default_rng(0)
        groups = form_tournaments(list(range(n)), n_tournaments, rng)
        assert len(groups) == n_tournaments
        assert sum(len(g) for g in groups) == n


class TestQuestionGraph:
    def test_edge_count_matches_q(self, rng):
        for c_prev, c_next in [(20, 5), (24, 5), (7, 3), (10, 1)]:
            groups = form_tournaments(list(range(c_prev)), c_next, rng)
            questions = tournament_question_graph(groups)
            assert len(questions) == tournament_questions(c_prev, c_next)

    def test_questions_are_canonical_and_distinct(self, rng):
        groups = form_tournaments(list(range(15)), 4, rng)
        questions = tournament_question_graph(groups)
        assert all(a < b for a, b in questions)
        assert len(set(questions)) == len(questions)

    def test_questions_stay_inside_groups(self, rng):
        groups = form_tournaments(list(range(12)), 3, rng)
        group_of = {e: i for i, g in enumerate(groups) for e in g}
        for a, b in tournament_question_graph(groups):
            assert group_of[a] == group_of[b]


class TestArrayTemplate:
    """The array construction reproduces the list oracle row for row."""

    @given(st.integers(1, 60), st.data())
    @settings(max_examples=60, deadline=None)
    def test_template_matches_list_cliques(self, c_prev, data):
        c_next = data.draw(st.integers(1, c_prev))
        groups = form_tournaments(list(range(c_prev)), c_next, _NoShuffle())
        expected = tournament_question_graph(groups)
        template = tournament_template(c_prev, c_next)
        assert template.shape == (len(expected), 2)
        assert list(map(tuple, template.tolist())) == expected
        assert not template.flags.writeable

    def test_large_templates_are_built_not_cached(self):
        big = tournament_template(200, 2)
        assert len(big) > CACHED_TEMPLATE_ROWS
        assert big is not tournament_template(200, 2)
        small = tournament_template(20, 5)
        assert small is tournament_template(20, 5)

    @pytest.mark.parametrize("n", [2, 3, 7, 50, 200])
    def test_permutation_draws_match_list_shuffle(self, n):
        for seed in range(20):
            shuffled = list(range(n))
            np.random.default_rng(seed).shuffle(shuffled)
            permuted = np.random.default_rng(seed).permutation(tuple(range(n)))
            assert permuted.tolist() == shuffled


class TestSelectorMatchesReference:
    """TournamentFormation equals form_tournaments + tournament_question_graph
    (+ the list extras) question for question, and leaves the RNG in the
    same state."""

    @given(
        st.integers(2, 60),
        st.data(),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_rounds_equal_the_list_reference(self, c_prev, data, seed, spend):
        n_tournaments = data.draw(st.integers(1, c_prev), label="n_tournaments")
        base = tournament_questions(c_prev, n_tournaments)
        # Every budget below the next-fewer tournaments' Q forms exactly
        # n_tournaments; the top of the range leaves the densest leftover.
        ceiling = (
            tournament_questions(c_prev, n_tournaments - 1) - 1
            if n_tournaments > 1
            else base + 3
        )
        budget = data.draw(st.integers(base, ceiling), label="budget")
        assert fewest_tournaments_within(c_prev, budget) == n_tournaments
        candidates = tuple(
            sorted(data.draw(st.sets(st.integers(0, 500), min_size=c_prev, max_size=c_prev)))
        )
        self._check(candidates, budget, seed, spend)

    @pytest.mark.parametrize("c_prev", [2, 5, 17, 60])
    @pytest.mark.parametrize("spend", [True, False])
    def test_every_tournament_count(self, c_prev, spend):
        for n_tournaments in range(1, c_prev + 1):
            base = tournament_questions(c_prev, n_tournaments)
            for budget in {base, base + 1, base + 2 * c_prev}:
                if fewest_tournaments_within(c_prev, budget) != n_tournaments:
                    continue
                for seed in range(3):
                    self._check(tuple(range(c_prev)), budget, seed, spend)

    def _check(self, candidates, budget, seed, spend):
        array_rng = np.random.default_rng(seed)
        list_rng = np.random.default_rng(seed)
        context = SelectionContext(
            budget=budget,
            candidates=candidates,
            evidence=AnswerGraph(range(max(candidates) + 1)),
            round_index=0,
            total_rounds=1,
            rng=array_rng,
        )
        got = TournamentFormation(spend_leftover=spend).select(context)
        expected = reference_select(candidates, budget, list_rng, spend)
        assert got.dtype == np.int64 and got.shape == (len(expected), 2)
        assert list(map(tuple, got.tolist())) == expected
        assert array_rng.bit_generator.state == list_rng.bit_generator.state


class _NoShuffle:
    """An RNG stand-in that leaves the order alone."""

    def shuffle(self, items):
        pass
