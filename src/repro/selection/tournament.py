"""The Tournament-formation question-selection algorithm (Section 5.2).

In each round the algorithm finds the lowest integer ``c_next`` such that
``Q(|C_j|, c_next) <= b_j`` — i.e. it forms the fewest tournaments the round
budget allows, because fewer (larger) tournaments eliminate more candidates.
If budget remains after forming the tournaments, the leftover is spent on
random questions between elements of *different* tournaments.

Elements are assigned to tournaments uniformly at random; scores from
previous rounds play no role (the paper's Section 5.2 description).

A round is dealt in two steps.  :meth:`TournamentFormation.draw` makes
the round's only random draws: a permutation of the candidates'
positions, then any leftover extras.  :meth:`TournamentFormation.deal`
builds any number of drawn rounds with one gather: the concatenated
candidates, indexed by the concatenated permutations through the
concatenated position templates of ``G_T(c, c_next)``; one minimum and
one maximum over the columns then put each row in ``(lo, hi)`` form.
:meth:`~TournamentFormation.select` is these two steps over one round,
and a pass over many sessions (:func:`repro.engine.session.open_rounds`)
draws each session's round in session order and deals them all
together, so both draw the same questions from the same stream.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.questions import (
    fewest_tournaments_within,
    tournament_questions,
    tournament_sizes,
)
from repro.graphs.answer_graph import AnswerGraph
from repro.graphs.tournaments import CACHED_TEMPLATE_ROWS, tournament_template
from repro.selection.base import QuestionSelector, SelectionContext, overspent
from repro.types import Element, Question, normalize_question

#: One round's draws: its candidates, the permutation of their positions,
#: the position template of its tournaments, its extras (or ``None``) and
#: its budget.
Drawn = Tuple[
    Union[Tuple[Element, ...], np.ndarray], np.ndarray, np.ndarray,
    Optional[np.ndarray], int,
]


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
    # Scores from earlier rounds play no part in forming tournaments.
    reads_evidence = False

    def __init__(self, spend_leftover: bool = True) -> None:
        self.spend_leftover = spend_leftover

    def select(self, ctx: SelectionContext) -> np.ndarray:
        """The round's questions as one ``(k, 2)`` int64 array: the
        tournaments' cliques in tournament order, then any extras."""
        drawn = self.draw(
            ctx.budget, ctx.candidates, ctx.evidence, ctx.round_index,
            ctx.total_rounds, ctx.rng,
        )
        if drawn is None:
            return np.empty((0, 2), np.int64)
        return self.deal([drawn])[0]

    def draw(
        self,
        budget: int,
        candidates: Union[Tuple[Element, ...], np.ndarray],
        evidence: Optional[AnswerGraph],
        round_index: int,
        total_rounds: int,
        rng: np.random.Generator,
    ) -> Optional[Drawn]:
        """Draw the round's permutation of candidate positions, then its
        leftover extras; ``None`` below two candidates or at zero budget.

        A permutation of positions draws what permuting the candidates
        draws, without converting them for the shuffle.  *candidates* may
        be a tuple or an int array.
        """
        size = len(candidates)
        if budget < 0 or not size or not 0 <= round_index < max(total_rounds, 1):
            # Raises the context's own error for the field at fault.
            SelectionContext(
                budget, tuple(candidates), evidence, round_index,
                total_rounds, rng,
            )
        if size < 2 or budget == 0:
            return None
        c_next, template = _dealing(size, budget)
        if template is None:
            template = tournament_template(size, c_next)
        permutation = rng.permutation(size)
        leftover = budget - len(template)
        extras = None
        if self.spend_leftover and leftover > 0 and c_next > 1:
            members = np.asarray(candidates, np.int64)[permutation]
            extras = np.array(
                _cross_tournament_extras(members.tolist(), c_next, leftover, rng),
                np.int64,
            ).reshape(-1, 2)
        return candidates, permutation, template, extras, budget

    def deal(self, draws: Sequence[Drawn]) -> Tuple[np.ndarray, List[int]]:
        """Build the drawn rounds with one gather, round after round: each
        round's cliques in tournament order, then its extras.

        Raises:
            InvalidParameterError: if a round holds more questions than
                its budget.
        """
        candidates, permutations, templates, extras, budgets = zip(*draws)
        n = len(draws)
        sizes = np.fromiter(map(len, candidates), np.int64, n)
        bases = np.cumsum(sizes) - sizes
        flat = np.concatenate(candidates).astype(np.int64, copy=False)
        positions = np.concatenate(permutations)
        positions += np.repeat(bases, sizes)
        rows = np.fromiter(map(len, templates), np.int64, n)
        pairs = np.concatenate(templates)
        pairs += np.repeat(bases, rows)[:, None]
        dealt = flat[positions[pairs]]
        # Each row sorted into (lo, hi): a min and a max over the columns
        # cost less than sorting each two-element row.
        questions = np.empty_like(dealt)
        np.minimum(dealt[:, 0], dealt[:, 1], out=questions[:, 0])
        np.maximum(dealt[:, 0], dealt[:, 1], out=questions[:, 1])
        if any(extra is not None for extra in extras):
            questions, rows = _with_extras(questions, rows, extras)
        over = np.flatnonzero(rows > np.fromiter(budgets, np.int64, n))
        if len(over):
            first = int(over[0])
            raise overspent(self, int(rows[first]), budgets[first])
        return questions, rows.tolist()


@functools.lru_cache(maxsize=256)
def _dealing(c_prev: int, budget: int) -> Tuple[int, Optional[np.ndarray]]:
    """``c_next`` of a round of *c_prev* candidates and *budget*, and the
    position template of its tournaments, or ``None`` for a template over
    ``CACHED_TEMPLATE_ROWS`` questions (built per round instead)."""
    c_next = fewest_tournaments_within(c_prev, budget)
    if tournament_questions(c_prev, c_next) > CACHED_TEMPLATE_ROWS:
        return c_next, None
    return c_next, tournament_template(c_prev, c_next)


def _with_extras(
    questions: np.ndarray,
    rows: np.ndarray,
    extras: Sequence[Optional[np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Each round's cliques followed by its extras, and the new row
    counts."""
    ends = np.cumsum(rows).tolist()
    blocks = []
    for start, end, extra in zip([0] + ends, ends, extras):
        blocks.append(questions[start:end])
        if extra is not None:
            blocks.append(extra)
    counts = [0 if extra is None else len(extra) for extra in extras]
    return np.concatenate(blocks), rows + counts


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
