"""MaxSession: drive the MAX operation against a *real* platform.

:class:`repro.engine.max_engine.MaxEngine` owns the control loop and pulls
answers from an :class:`AnswerSource` — perfect for simulation.  A real
deployment is the other way round: the caller posts questions to an actual
crowdsourcing platform, waits however long that takes, and pushes the
answers back when they arrive.  :class:`MaxSession` supports exactly that
inversion of control:

    session = MaxSession(allocation, selector, n_elements=500, rng=rng)
    while not session.done:
        batch = session.pending_questions()       # the unanswered rest
        answers = my_platform.ask(batch)          # hours may pass here
        session.submit(answers)                   # any subset of batch
    print(session.winner)

Answers may come back piecemeal: :meth:`MaxSession.submit` takes any
subset of the unanswered questions and the round resolves when the last
one arrives.  It takes them as :class:`~repro.types.Answer` s or as a
``(k, 2)`` int array of ``(winner, loser)`` rows, the form a shared crowd
round already has.  Sessions are checkpointable at any point, mid-round
included, with :mod:`repro.persistence`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.allocation import Allocation
from repro.errors import InvalidParameterError, ReproError
from repro.graphs.answer_graph import AnswerGraph
from repro.selection.base import QuestionSelector, SelectionContext, select_round
from repro.selection.scoring import best_scored
from repro.types import Answer, Element, Question, as_pairs


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
    returns the current round's unanswered questions (selecting the round
    on first call), and :meth:`submit` records answers to any of them.
    Once every question of the round is answered the next round (or
    termination) is reached.  Rounds whose budget cannot buy any
    questions are skipped automatically.
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
        #: The open round as columns: its ``(k, 2)`` selected questions, the
        #: sorted canonical keys ``lo * n_elements + hi`` of those, the
        #: selection index of each sorted key, and which selected questions
        #: are answered.
        self._pending: Optional[np.ndarray] = None
        self._keys = np.empty(0, np.int64)
        self._key_order = np.empty(0, np.int64)
        self._answered = np.zeros(0, bool)
        self._n_answered = 0
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
        """Elements that have not lost any recorded comparison yet."""
        return self._candidates

    @property
    def round_index(self) -> int:
        """Zero-based index of the current (or next) allocation round."""
        return self._round_index

    @property
    def questions_posted(self) -> int:
        """Questions in the rounds resolved so far."""
        return self._questions_posted

    @property
    def rounds_executed(self) -> int:
        """Rounds that actually asked questions."""
        return self._rounds_executed

    @property
    def awaiting_answers(self) -> bool:
        """True while a selected round still has unanswered questions.

        Such a session checkpoints like any other: the round's questions
        and the answers recorded so far are all the state it has.
        """
        return self._pending is not None

    @property
    def rng(self) -> np.random.Generator:
        """The selector randomness source (exposed for checkpointing)."""
        return self._rng

    @property
    def pending(self) -> Optional[List[Question]]:
        """The whole handed-out round, answered questions included, or
        ``None`` between rounds.

        Exposed so mid-round checkpoints can persist the exact selected
        questions without re-running the selector.  Unlike
        :meth:`pending_questions` this never selects.
        """
        if self._pending is None:
            return None
        return list(map(tuple, self._pending.tolist()))

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
        no re-selection), and those the evidence has not answered yet are
        pending again.  The RNG must then carry the post-selection state
        the checkpoint saved.

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
            pending_rows = as_pairs(list(pending))
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
            if len(pending_rows) > allocation.round_budgets[round_index]:
                raise InvalidParameterError(
                    f"{len(pending_rows)} pending questions exceed round "
                    f"{round_index}'s budget of "
                    f"{allocation.round_budgets[round_index]}"
                )
            answered = np.array(
                [
                    evidence.direct_result(a, b) is not None
                    for a, b in pending_rows.tolist()
                ],
                dtype=bool,
            )
            if answered.all():
                raise InvalidParameterError(
                    "a mid-round checkpoint must leave at least one pending "
                    "question unanswered"
                )
            session._open_round(pending_rows, answered)
        return session

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def pending_questions(self) -> np.ndarray:
        """The current round's unanswered questions, in selection order, as
        a read-only ``(k, 2)`` int64 array of canonical ``(lo, hi)`` rows.

        The round is selected on the first call; later calls return what
        :meth:`submit` has not answered yet.  Raises
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
            if not len(questions):
                # Nothing askable this round; skip it transparently.
                self._round_index += 1
                self._advance_past_empty_rounds()
                if not self.done:
                    return self.pending_questions()
                raise SessionStateError("the session has finished")
            self._open_round(questions, np.zeros(len(questions), bool))
        if not self._n_answered:
            return self._pending
        return self._pending[~self._answered]

    def _open_round(self, questions: np.ndarray, answered: np.ndarray) -> None:
        """Hand out the ``(k, 2)`` *questions* as the round, *answered* of
        them already."""
        a, b = questions[:, 0], questions[:, 1]
        keys = np.minimum(a, b) * len(self.evidence) + np.maximum(a, b)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if np.count_nonzero(a == b) or np.count_nonzero(keys[1:] == keys[:-1]):
            raise InvalidParameterError(
                "a round's questions must be distinct pairs of distinct "
                "elements"
            )
        questions.flags.writeable = False
        self._pending = questions
        self._keys = keys
        self._key_order = order
        self._answered = answered
        self._n_answered = int(np.count_nonzero(answered))

    def submit(self, answers: Union[np.ndarray, Sequence[Answer]]) -> None:
        """Record answers to any subset of the unanswered questions.

        *answers* is a ``(k, 2)`` int array of ``(winner, loser)`` rows, or
        a sequence of :class:`~repro.types.Answer` s (converted to one on
        entry).  The answers enter the evidence graph (and
        :attr:`candidates`) at once; the round resolves when its last
        question is answered.

        Raises:
            SessionStateError: if no round is pending, or if an answer is
                foreign to the round, repeated, already given or compares
                an element with itself — nothing is recorded then, as
                accepting it would silently corrupt the evidence graph.
        """
        if self._pending is None:
            raise SessionStateError(
                "no pending questions; call pending_questions() first"
            )
        rows = _answer_rows(answers)
        winners, losers = rows[:, 0], rows[:, 1]
        lo, hi = np.minimum(winners, losers), np.maximum(winners, losers)
        n = len(self.evidence)
        keys = lo * n + hi
        slots = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        known = (self._keys[slots] == keys) & (lo >= 0) & (lo < hi) & (hi < n)
        # Every row names a question of the round, and marking them adds
        # one answer per row: no row repeats another or an earlier answer.
        answered = self._answered.copy()
        answered[self._key_order[slots]] = True
        n_answered = int(np.count_nonzero(answered))
        if (
            np.count_nonzero(known) < len(rows)
            or n_answered - self._n_answered < len(rows)
        ):
            raise SessionStateError(
                f"answers must match distinct unanswered questions of the "
                f"round; foreign, repeated or already answered "
                f"(unknown: {rows[~known][:5].tolist()})"
            )
        self.evidence.record_pairs(rows, validated=True)
        self._answered, self._n_answered = answered, n_answered
        if len(rows):
            lost = set(losers.tolist())
            self._candidates = tuple(
                [c for c in self._candidates if c not in lost]
            )
        if n_answered < len(self._pending):
            return
        self._questions_posted += len(self._pending)
        self._rounds_executed += 1
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


def _answer_rows(answers: Union[np.ndarray, Sequence[Answer]]) -> np.ndarray:
    """*answers* as a ``(k, 2)`` int64 array of ``(winner, loser)`` rows."""
    if isinstance(answers, np.ndarray):
        shape, kind = answers.shape, answers.dtype.kind
        if len(shape) != 2 or shape[1] != 2 or kind not in "iu":
            raise InvalidParameterError(
                f"answers must be a (k, 2) int array of (winner, loser) rows, "
                f"got shape {answers.shape} of {answers.dtype}"
            )
        return answers.astype(np.int64, copy=False)
    rows = [(answer.winner, answer.loser) for answer in answers]
    return np.array(rows, dtype=np.int64).reshape(-1, 2)
