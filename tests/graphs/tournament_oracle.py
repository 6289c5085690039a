"""The list-based tournament construction, kept as the tests' reference.

:class:`repro.selection.tournament.TournamentFormation` builds a round as
one ``(k, 2)`` array from a cached position template.  This module is the
straightforward construction it must reproduce draw for draw and row for
row: shuffle a list, cut it into Definition 1's groups, list each group's
clique, then rejection-sample cross-tournament extras.
"""

from __future__ import annotations

from typing import List, Sequence, Set

import numpy as np

from repro.core.questions import fewest_tournaments_within, tournament_sizes
from repro.errors import InvalidParameterError
from repro.types import Element, Question, normalize_question


def form_tournaments(
    elements: Sequence[Element],
    n_tournaments: int,
    rng: np.random.Generator,
) -> List[List[Element]]:
    """Randomly partition *elements* into ``n_tournaments`` near-equal
    groups, larger groups first."""
    if not elements:
        raise InvalidParameterError("cannot form tournaments over no elements")
    sizes = tournament_sizes(len(elements), n_tournaments)
    shuffled = list(elements)
    rng.shuffle(shuffled)
    groups: List[List[Element]] = []
    start = 0
    for size in sizes:
        groups.append(shuffled[start : start + size])
        start += size
    return groups


def tournament_question_graph(groups: Sequence[Sequence[Element]]) -> List[Question]:
    """All intra-tournament pairs: each group's complete clique."""
    questions: List[Question] = []
    for group in groups:
        members = list(group)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                questions.append(normalize_question(a, b))
    return questions


def reference_select(
    candidates: Sequence[Element],
    budget: int,
    rng: np.random.Generator,
    spend_leftover: bool = True,
) -> List[Question]:
    """The Tournament-formation round, built from lists."""
    if len(candidates) < 2 or budget == 0:
        return []
    n_tournaments = fewest_tournaments_within(len(candidates), budget)
    groups = form_tournaments(list(candidates), n_tournaments, rng)
    questions = tournament_question_graph(groups)
    leftover = budget - len(questions)
    if spend_leftover and leftover > 0 and n_tournaments > 1:
        questions.extend(_extras(groups, leftover, set(questions), rng))
    return questions


def _extras(
    groups: List[List[Element]],
    leftover: int,
    already: Set[Question],
    rng: np.random.Generator,
) -> List[Question]:
    group_of = {
        element: index for index, group in enumerate(groups) for element in group
    }
    members = [element for group in groups for element in group]
    extras: List[Question] = []
    attempts_left = 20 * leftover
    while leftover > 0 and attempts_left > 0:
        a, b = rng.choice(len(members), size=2, replace=False)
        first, second = members[a], members[b]
        if group_of[first] == group_of[second]:
            attempts_left -= 1
            continue
        pair = normalize_question(first, second)
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
            for b in members[i + 1 :]
            if group_of[a] != group_of[b]
            and normalize_question(a, b) not in already
        ]
        rng.shuffle(remaining)
        extras.extend(remaining[:leftover])
    return extras
