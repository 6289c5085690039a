"""The per-round Tournament selection, kept as the tests' reference.

:class:`repro.selection.tournament.TournamentFormation` draws each
round's permutation (and extras) in one step and deals any number of
drawn rounds with one gather.  This module is the per-round selection it
must reproduce draw for draw and row for row: permute the candidates,
build the round's cliques with :func:`tournament_graph`, then append the
rejection-sampled cross-tournament extras.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.questions import fewest_tournaments_within, tournament_sizes
from repro.graphs.tournaments import tournament_graph
from repro.selection.base import SelectionContext
from repro.types import Element, Question, normalize_question


def reference_select(ctx: SelectionContext, spend_leftover: bool = True) -> np.ndarray:
    """The round's questions as one ``(k, 2)`` int64 array: the
    tournaments' cliques in tournament order, then any extras."""
    candidates = ctx.candidates
    if len(candidates) < 2 or ctx.budget == 0:
        return np.empty((0, 2), np.int64)
    n_tournaments = fewest_tournaments_within(len(candidates), ctx.budget)
    members = np.asarray(candidates, np.int64)[
        ctx.rng.permutation(len(candidates))
    ]
    questions = tournament_graph(members, n_tournaments)
    leftover = ctx.budget - len(questions)
    if spend_leftover and leftover > 0 and n_tournaments > 1:
        extras = reference_extras(
            members.tolist(), n_tournaments, leftover, ctx.rng
        )
        questions = np.concatenate(
            (questions, np.array(extras, np.int64).reshape(-1, 2))
        )
    return questions


def reference_extras(
    members: List[Element],
    n_tournaments: int,
    leftover: int,
    rng: np.random.Generator,
) -> List[Question]:
    """Random distinct questions between elements of different tournaments.

    *members* are the elements in the order they were dealt to the
    tournaments.
    """
    group_of = [
        index
        for index, size in enumerate(tournament_sizes(len(members), n_tournaments))
        for _ in range(size)
    ]
    already = set()
    extras: List[Question] = []
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
