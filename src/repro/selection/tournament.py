"""The Tournament-formation question-selection algorithm (Section 5.2).

In each round the algorithm finds the lowest integer ``c_next`` such that
``Q(|C_j|, c_next) <= b_j`` — i.e. it forms the fewest tournaments the round
budget allows, because fewer (larger) tournaments eliminate more candidates.
If budget remains after forming the tournaments, the leftover is spent on
random questions between elements of *different* tournaments.

Elements are assigned to tournaments uniformly at random; scores from
previous rounds play no role (the paper's Section 5.2 description).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.questions import fewest_tournaments_within, tournament_sizes
from repro.graphs.tournaments import tournament_graph
from repro.selection.base import QuestionSelector, SelectionContext
from repro.types import Element, Question, normalize_question


class TournamentFormation(QuestionSelector):
    """Form the fewest affordable tournaments; spend leftovers across them.

    Args:
        spend_leftover: when ``True`` (the paper's behaviour) budget left
            after forming the tournaments buys random cross-tournament
            questions; when ``False`` the leftover is simply not spent.
            The ``False`` variant exists for the leftover-spending ablation
            benchmark.
    """

    name = "Tournament"

    def __init__(self, spend_leftover: bool = True) -> None:
        self.spend_leftover = spend_leftover

    def select(self, ctx: SelectionContext) -> np.ndarray:
        """The round's questions as one ``(k, 2)`` int64 array: the
        tournaments' cliques in tournament order, then any extras."""
        candidates = ctx.candidates
        if len(candidates) < 2 or ctx.budget == 0:
            return np.empty((0, 2), np.int64)
        n_tournaments = fewest_tournaments_within(len(candidates), ctx.budget)
        # A permutation of positions draws what permuting the candidates
        # draws, without converting them for the shuffle.
        members = np.asarray(candidates, np.int64)[
            ctx.rng.permutation(len(candidates))
        ]
        questions = tournament_graph(members, n_tournaments)
        leftover = ctx.budget - len(questions)
        if self.spend_leftover and leftover > 0 and n_tournaments > 1:
            extras = _cross_tournament_extras(
                members.tolist(), n_tournaments, leftover, ctx.rng
            )
            questions = np.concatenate(
                (questions, np.array(extras, np.int64).reshape(-1, 2))
            )
        return questions


def _cross_tournament_extras(
    members: List[Element],
    n_tournaments: int,
    leftover: int,
    rng: np.random.Generator,
) -> List[Question]:
    """Random distinct questions between elements of different tournaments.

    *members* are the elements in the order they were dealt to the
    tournaments.  A cross pair is never a tournament question, so only
    the extras themselves can repeat.
    """
    group_of = [
        index
        for index, size in enumerate(tournament_sizes(len(members), n_tournaments))
        for _ in range(size)
    ]
    already = set()
    extras: List[Question] = []
    # Rejection-sample random cross pairs; fall back to enumeration when the
    # leftover is a large fraction of the available cross pairs.
    attempts_left = 20 * leftover
    while leftover > 0 and attempts_left > 0:
        a, b = rng.choice(len(members), size=2, replace=False)
        if group_of[a] == group_of[b]:
            attempts_left -= 1
            continue
        pair = normalize_question(members[a], members[b])
        if pair in already:
            attempts_left -= 1
            continue
        already.add(pair)
        extras.append(pair)
        leftover -= 1
    if leftover > 0:
        # Dense regime: enumerate all remaining cross pairs and sample.
        remaining = [
            normalize_question(a, b)
            for i, a in enumerate(members)
            for j, b in enumerate(members[i + 1 :], i + 1)
            if group_of[i] != group_of[j]
            and normalize_question(a, b) not in already
        ]
        rng.shuffle(remaining)
        extras.extend(remaining[:leftover])
    return extras
