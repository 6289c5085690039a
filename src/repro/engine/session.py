"""MaxSession: drive the MAX operation against a *real* platform.

:class:`repro.engine.max_engine.MaxEngine` owns the control loop and pulls
answers from an :class:`AnswerSource` — perfect for simulation.  A real
deployment is the other way round: the caller posts questions to an actual
crowdsourcing platform, waits however long that takes, and pushes the
answers back when they arrive.  :class:`MaxSession` supports exactly that
inversion of control:

    session = MaxSession(allocation, selector, n_elements=500, rng=rng)
    while not session.done:
        batch = session.pending_questions()
        answers = my_platform.ask(batch)          # hours may pass here
        session.submit(answers)
    print(session.winner)

Sessions are checkpointable: the evidence graph is exposed and can be
persisted with :mod:`repro.persistence` between rounds.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.errors import InvalidParameterError, ReproError
from repro.graphs.answer_graph import AnswerGraph
from repro.selection.base import QuestionSelector, SelectionContext, select_round
from repro.selection.scoring import best_scored
from repro.types import Answer, Element, Question, normalize_question


class SessionStateError(ReproError):
    """The session was driven out of order (e.g. submit before asking)."""


class MaxSession:
    """Round-by-round, caller-driven crowdsourced MAX.

    Args:
        allocation: the per-round question budgets (e.g. from tDP).
        selector: the question-selection strategy.
        n_elements: size of the input collection.
        rng: randomness source for the selector.

    The session walks the allocation's rounds: :meth:`pending_questions`
    returns the current round's questions (selecting them on first call),
    and :meth:`submit` consumes exactly one answer per pending question,
    after which the next round (or termination) is reached.  Rounds whose
    budget cannot buy any questions are skipped automatically.
    """

    def __init__(
        self,
        allocation: Allocation,
        selector: QuestionSelector,
        n_elements: int,
        rng: np.random.Generator,
    ) -> None:
        if n_elements < 1:
            raise InvalidParameterError(
                f"n_elements must be >= 1, got {n_elements}"
            )
        self.allocation = allocation
        self.selector = selector
        self._rng = rng
        self.evidence = AnswerGraph(range(n_elements))
        self._candidates: Tuple[Element, ...] = tuple(range(n_elements))
        self._round_index = 0
        self._pending: Optional[List[Question]] = None
        self._questions_posted = 0
        self._rounds_executed = 0
        self._advance_past_empty_rounds()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once a single candidate remains or the rounds are spent."""
        return self._pending is None and (
            len(self._candidates) == 1
            or self._round_index >= self.allocation.rounds
        )

    @property
    def singleton_termination(self) -> bool:
        """Whether exactly one candidate remains."""
        return len(self._candidates) == 1

    @property
    def winner(self) -> Element:
        """The declared MAX.  Only available once :attr:`done`.

        With several surviving candidates the highest-scoring one is
        declared, as in the batch engine.
        """
        if not self.done:
            raise SessionStateError(
                "the session is still running; submit the pending answers"
            )
        if len(self._candidates) == 1:
            return self._candidates[0]
        return best_scored(self.evidence)

    @property
    def candidates(self) -> Tuple[Element, ...]:
        """Elements that have not lost any comparison yet."""
        return self._candidates

    @property
    def round_index(self) -> int:
        """Zero-based index of the current (or next) allocation round."""
        return self._round_index

    @property
    def questions_posted(self) -> int:
        """Distinct questions handed out so far."""
        return self._questions_posted

    @property
    def rounds_executed(self) -> int:
        """Rounds that actually asked questions."""
        return self._rounds_executed

    @property
    def awaiting_answers(self) -> bool:
        """True while a selected round has been handed out but not resolved.

        A session in this state cannot be checkpointed: the pending
        questions live only in the caller's hands, so persist between
        rounds (after :meth:`submit`) instead.
        """
        return self._pending is not None

    @property
    def rng(self) -> np.random.Generator:
        """The selector randomness source (exposed for checkpointing)."""
        return self._rng

    @property
    def pending(self) -> Optional[List[Question]]:
        """The handed-out round's questions, or ``None`` between rounds.

        Exposed so mid-round checkpoints (the service journal snapshots
        between scheduler ticks, which can land inside a round) can
        persist the exact selected questions without re-running the
        selector.  Unlike :meth:`pending_questions` this never selects.
        """
        return list(self._pending) if self._pending is not None else None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @classmethod
    def restore(
        cls,
        allocation: Allocation,
        selector: QuestionSelector,
        n_elements: int,
        rng: np.random.Generator,
        *,
        evidence: AnswerGraph,
        round_index: int,
        questions_posted: int,
        rounds_executed: int,
        pending: Optional[Iterable[Question]] = None,
    ) -> "MaxSession":
        """Rebuild a session from checkpointed state.

        The counterpart of :func:`repro.persistence.session_to_dict`; the
        evidence graph is adopted as-is, the candidate set is re-derived
        from it, and empty upcoming rounds are skipped exactly as a live
        session would have.

        With *pending* the session resumes *mid-round*: the given
        questions are adopted as the already-handed-out round (in order,
        no re-selection), and the next :meth:`submit` resolves them.  The
        RNG must then carry the post-selection state the checkpoint saved.

        Raises:
            InvalidParameterError: if the checkpointed state is internally
                inconsistent with the allocation or collection size.
        """
        session = cls(allocation, selector, n_elements, rng)
        if evidence.elements != session.evidence.elements:
            raise InvalidParameterError(
                f"checkpointed evidence covers {len(evidence.elements)} "
                f"elements, expected {n_elements}"
            )
        if not 0 <= round_index <= allocation.rounds:
            raise InvalidParameterError(
                f"round_index {round_index} outside the allocation's "
                f"{allocation.rounds} rounds"
            )
        if questions_posted < 0 or rounds_executed < 0:
            raise InvalidParameterError(
                "questions_posted and rounds_executed must be >= 0"
            )
        session.evidence = evidence
        session._candidates = tuple(sorted(evidence.remaining_candidates()))
        session._round_index = round_index
        session._questions_posted = questions_posted
        session._rounds_executed = rounds_executed
        session._pending = None
        session._advance_past_empty_rounds()
        if pending is not None:
            pending_list = [(int(a), int(b)) for a, b in pending]
            if not pending_list:
                raise InvalidParameterError(
                    "a mid-round checkpoint must carry at least one "
                    "pending question"
                )
            if round_index >= allocation.rounds:
                raise InvalidParameterError(
                    f"pending questions recorded for round {round_index}, "
                    f"but the allocation has only {allocation.rounds} rounds"
                )
            if session._round_index != round_index:
                # _advance_past_empty_rounds moved on, yet the checkpoint
                # says questions were handed out in round_index — a round
                # with pending questions has budget >= 1, contradiction.
                raise InvalidParameterError(
                    f"pending questions recorded for round {round_index}, "
                    f"but that round has zero budget"
                )
            if len(pending_list) > allocation.round_budgets[round_index]:
                raise InvalidParameterError(
                    f"{len(pending_list)} pending questions exceed round "
                    f"{round_index}'s budget of "
                    f"{allocation.round_budgets[round_index]}"
                )
            session._pending = pending_list
        return session

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def pending_questions(self) -> List[Question]:
        """The questions of the current round (selected on first call).

        Returns the same list until :meth:`submit` resolves it.  Raises
        :class:`SessionStateError` when the session is finished.
        """
        if self.done:
            raise SessionStateError("the session has finished")
        if self._pending is None:
            context = SelectionContext(
                budget=self.allocation.round_budgets[self._round_index],
                candidates=self._candidates,
                evidence=self.evidence,
                round_index=self._round_index,
                total_rounds=self.allocation.rounds,
                rng=self._rng,
            )
            questions = select_round(self.selector, context)
            self._pending = questions
            if not questions:
                # Nothing askable this round; skip it transparently.
                self._pending = None
                self._round_index += 1
                self._advance_past_empty_rounds()
                if not self.done:
                    return self.pending_questions()
                raise SessionStateError("the session has finished")
        return list(self._pending)

    def submit(self, answers: Iterable[Answer]) -> None:
        """Resolve the pending round with one answer per pending question.

        Raises:
            SessionStateError: if no round is pending, or if the answers do
                not match the pending questions exactly (missing, extra or
                foreign answers) — accepting them would silently corrupt
                the evidence graph.
        """
        if self._pending is None:
            raise SessionStateError(
                "no pending questions; call pending_questions() first"
            )
        answers = list(answers)
        expected = {normalize_question(a, b) for a, b in self._pending}
        provided = {answer.question for answer in answers}
        if provided != expected or len(answers) != len(expected):
            missing = expected - provided
            extra = provided - expected
            raise SessionStateError(
                f"answers do not match the pending questions "
                f"(missing: {sorted(missing)[:5]}, extra: {sorted(extra)[:5]})"
            )
        self.evidence.record_all(answers)
        self._questions_posted += len(self._pending)
        self._rounds_executed += 1
        self._candidates = tuple(sorted(self.evidence.remaining_candidates()))
        self._pending = None
        self._round_index += 1
        self._advance_past_empty_rounds()

    def _advance_past_empty_rounds(self) -> None:
        """Skip trailing zero-budget rounds so ``done`` reflects reality."""
        budgets = self.allocation.round_budgets
        while (
            len(self._candidates) > 1
            and self._round_index < len(budgets)
            and budgets[self._round_index] == 0
        ):
            self._round_index += 1
