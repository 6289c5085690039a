"""The question-selector interface shared by all Section 5.2 strategies.

A question-selection algorithm receives, for round ``j``:

* ``b_j`` — the round's question budget (from the budget allocation), and
* ``C_j`` — the candidates that have not lost any comparison so far,

plus the evidence graph of all previous answers, and returns the set of
pairwise questions to post this round.

An important invariant simplifies every selector: **all pairs among current
candidates are unasked.**  Every answered pair produced a loser, and a loser
is no longer a candidate, so no two candidates have ever been compared.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph
from repro.types import Element, Question, Questions, as_pairs


@dataclass(frozen=True)
class SelectionContext:
    """Everything a selector may consult when picking a round's questions.

    Attributes:
        budget: ``b_j``, the maximum questions to post this round.
        candidates: ``C_j``, elements that have not lost any comparison.
        evidence: answer graph accumulated over rounds ``0 .. j-1``.
        round_index: zero-based index of the current round.
        total_rounds: number of rounds in the overall allocation.
        rng: randomness source (selectors must not use global randomness).
    """

    budget: int
    candidates: Tuple[Element, ...]
    evidence: AnswerGraph
    round_index: int
    total_rounds: int
    rng: np.random.Generator

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise InvalidParameterError(f"round budget must be >= 0: {self.budget}")
        if not self.candidates:
            raise InvalidParameterError("a round needs at least one candidate")
        if not 0 <= self.round_index < max(self.total_rounds, 1):
            raise InvalidParameterError(
                f"round_index {self.round_index} outside "
                f"[0, {self.total_rounds})"
            )


class QuestionSelector(ABC):
    """Strategy that turns a round budget into concrete questions.

    Contract for :meth:`select`:

    * returns at most ``ctx.budget`` questions, as a sequence of pairs or
      a ``(k, 2)`` int array;
    * questions are distinct, in canonical ``(min, max)`` form, and only
      involve current candidates;
    * with fewer than two candidates, returns no questions.

    A pass that opens many sessions' rounds at once (see
    :func:`repro.engine.session.open_rounds`) splits selection in two:
    :meth:`draw` makes each session's random draws, in session order, so
    sessions may share one stream whatever their selectors; then
    :meth:`deal` builds all of one selector's rounds together.  By default
    :meth:`draw` selects the whole round through :func:`select_round` and
    :meth:`deal` only concatenates, so a selector need only implement
    :meth:`select`.
    """

    #: Short name used in registries, experiment tables and plots.
    name: str = "selector"
    #: Whether :meth:`draw` reads its ``evidence``; a pass over many
    #: sessions passes ``None`` to a selector that does not, so their
    #: evidence graphs need not be built.
    reads_evidence: bool = True

    @abstractmethod
    def select(self, ctx: SelectionContext) -> Questions:
        """Pick the questions to post for this round."""

    def draw(
        self,
        budget: int,
        candidates: Tuple[Element, ...],
        evidence: AnswerGraph,
        round_index: int,
        total_rounds: int,
        rng: np.random.Generator,
    ) -> Optional[Any]:
        """Make one round's random draws now, with the fields of its
        :class:`SelectionContext`.

        *candidates* may also be an int array, as
        :func:`~repro.engine.session.open_rounds` passes them; the context
        gets them as a tuple.  Returns what :meth:`deal` needs to build the
        round, or ``None`` when the round selects no questions.
        """
        if isinstance(candidates, np.ndarray):
            candidates = tuple(candidates.tolist())
        questions = select_round(
            self,
            SelectionContext(
                budget, candidates, evidence, round_index, total_rounds, rng
            ),
        )
        return questions if len(questions) else None

    def deal(self, draws: Sequence[Any]) -> Tuple[np.ndarray, List[int]]:
        """The rounds of *draws* (each made by :meth:`draw`) as one
        ``(k, 2)`` int64 array, round after round, and each round's row
        count."""
        return np.concatenate(draws), [len(questions) for questions in draws]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def select_round(
    selector: QuestionSelector, ctx: SelectionContext
) -> np.ndarray:
    """Run *selector* for one round, enforcing its ``ctx.budget`` contract.

    Returns the round's questions as one ``(k, 2)`` int64 array.

    Raises:
        InvalidParameterError: if the selector returned more questions than
            the round budget allows.
    """
    questions = as_pairs(selector.select(ctx))
    if len(questions) > ctx.budget:
        raise overspent(selector, len(questions), ctx.budget)
    return questions


def overspent(
    selector: QuestionSelector, n_questions: int, budget: int
) -> InvalidParameterError:
    """The error for a round of *n_questions* over its *budget*."""
    return InvalidParameterError(
        f"selector {selector.name} returned {n_questions} "
        f"questions for a budget of {budget}"
    )


def all_pairs(candidates: Tuple[Element, ...]) -> List[Question]:
    """Every canonical pair among *candidates*."""
    ordered = sorted(candidates)
    return [
        (a, b)
        for i, a in enumerate(ordered)
        for b in ordered[i + 1 :]
    ]
