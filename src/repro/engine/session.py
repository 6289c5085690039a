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

A service driving many sessions at once opens and resolves their rounds
in two array passes.  :func:`open_rounds` has every closed session draw
its next round (with its session's RNG, in session order, so sessions
may share one stream), lets each selector deal all its sessions' rounds
at once (:meth:`~repro.selection.base.QuestionSelector.deal`; for
Tournament formation, one gather over the whole tick) and keys them all
together; :func:`submit_rounds` validates and records one shared round's
answers for all of them.  The single-session methods are these functions
over one session.  A batch is all-or-nothing: a bad row in any session
raises before any session records anything.

A session's state is columns too: its candidates are one int64 array,
and its answers are slices of the passes' directed-key arrays, folded
into an :class:`~repro.graphs.answer_graph.AnswerGraph` only when
:attr:`MaxSession.evidence` is read.  A service whose sessions select by
Tournament formation and end on one candidate never builds a graph.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.allocation import Allocation
from repro.errors import InvalidParameterError, ReproError
from repro.graphs.answer_graph import AnswerGraph, directed_keys
from repro.obs.profiling import PROFILER
from repro.selection.base import QuestionSelector
from repro.selection.scoring import best_scored
from repro.types import Answer, Element, Question, as_pairs


#: The columns of a session with no round open (read-only, shared).
_NO_KEYS = np.empty(0, np.int64)
_NO_KEYS.flags.writeable = False
_NO_ANSWERS = np.zeros(0, bool)
_NO_ANSWERS.flags.writeable = False


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
        self._n_elements = n_elements
        #: The evidence graph, built on first access (:attr:`evidence`),
        #: and the directed keys ``winner * n + loser`` of the answers
        #: recorded since, one array per submit.
        self._graph: Optional[AnswerGraph] = None
        self._unfolded: List[np.ndarray] = []
        #: Whether the open round may ask a pair the evidence already
        #: holds: only then can an answer contradict an earlier one.
        self._stale = False
        #: The candidates, ascending, as an int64 array: the open pass
        #: hands them to the selector and the submit pass filters them,
        #: both without converting element by element.
        self._candidates = np.arange(n_elements)
        self._round_index = 0
        #: The open round as columns: its ``(k, 2)`` selected questions, the
        #: sorted canonical keys ``lo * n_elements + hi`` of those, the
        #: selection index of each sorted key, and which selected questions
        #: are answered.
        self._pending: Optional[np.ndarray] = None
        self._keys = self._key_order = _NO_KEYS
        self._answered = _NO_ANSWERS
        self._n_answered = 0
        self._questions_posted = 0
        self._rounds_executed = 0
        self._advance_past_empty_rounds()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True once a single candidate remains or the rounds are spent.

        A round whose answers close a preference cycle can eliminate every
        candidate; with none left there is nothing to select, so the
        session is done too.
        """
        return self._pending is None and (
            len(self._candidates) <= 1
            or self._round_index >= len(self.allocation.round_budgets)
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
            return int(self._candidates[0])
        return best_scored(self.evidence)

    @property
    def evidence(self) -> AnswerGraph:
        """The graph of every answer recorded so far.

        Built on first access and brought up to date on each later one,
        so a session nobody asks for its evidence never builds it: a
        selector that does not read the evidence (Tournament formation)
        and a singleton termination need only the candidates.
        """
        graph = self._graph
        if graph is None:
            graph = self._graph = AnswerGraph(range(self._n_elements))
            if PROFILER.enabled:
                PROFILER.add("session.graphs_built")
        if self._unfolded:
            graph.record_new_keys(np.concatenate(self._unfolded))
            self._unfolded = []
        return graph

    @property
    def candidates(self) -> Tuple[Element, ...]:
        """Elements that have not lost any recorded comparison yet,
        ascending."""
        return tuple(self._candidates.tolist())

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
        """The selector randomness source.

        Exposed for checkpointing a standalone session
        (:func:`repro.persistence.session_to_dict`).  Sessions a
        :class:`~repro.service.scheduler.MaxScheduler` creates all share
        its one selector stream, which its journal snapshots once.
        """
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

    @property
    def open_round_size(self) -> int:
        """Questions of the open round, answered ones included; 0 between
        rounds.  :attr:`pending` as a count, without building it."""
        return 0 if self._pending is None else len(self._pending)

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
        if len(evidence) != n_elements:
            raise InvalidParameterError(
                f"checkpointed evidence covers {len(evidence)} "
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
        session._graph = evidence
        session._candidates = np.array(
            sorted(evidence.remaining_candidates()), np.int64
        )
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
            _hand_out([session], pending_rows, [len(pending_rows)])
            # The question keys lo * n + hi against the evidence's.
            answers = evidence.sorted_answers()
            answered = np.isin(
                session._keys,
                answers.min(axis=1) * n_elements + answers.max(axis=1),
            )
            if answered.all():
                raise InvalidParameterError(
                    "a mid-round checkpoint must leave at least one pending "
                    "question unanswered"
                )
            session._answered[session._key_order[answered]] = True
            session._n_answered = int(np.count_nonzero(answered))
        return session

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def pending_questions(self) -> np.ndarray:
        """The current round's unanswered questions, in selection order, as
        a read-only ``(k, 2)`` int64 array of canonical ``(lo, hi)`` rows.

        The round is selected on the first call (:func:`open_rounds`);
        later calls return what :meth:`submit` has not answered yet.
        Raises :class:`SessionStateError` when the session is finished.
        """
        if self._pending is None:
            open_rounds([self])
            if self._pending is None:
                raise SessionStateError("the session has finished")
        if not self._n_answered:
            return self._pending
        return self._pending[~self._answered]

    def submit(self, answers: Union[np.ndarray, Sequence[Answer]]) -> None:
        """Record answers to any subset of the unanswered questions.

        *answers* is a ``(k, 2)`` int array of ``(winner, loser)`` rows, or
        a sequence of :class:`~repro.types.Answer` s (converted to one on
        entry).  The answers enter the evidence graph (and
        :attr:`candidates`) at once; the round resolves when its last
        question is answered.  This is :func:`submit_rounds` over one
        session.

        Raises:
            SessionStateError: if no round is pending, or if an answer is
                foreign to the round, repeated, already given or compares
                an element with itself — nothing is recorded then, as
                accepting it would silently corrupt the evidence graph.
        """
        submit_rounds([self], answers, [len(answers)])

    def _draw(self) -> Optional[Any]:
        """Draw the next round with questions (see
        :meth:`QuestionSelector.draw`), skipping rounds that select none;
        ``None`` once the session is done."""
        budgets = self.allocation.round_budgets
        while len(self._candidates) > 1 and self._round_index < len(budgets):
            index = self._round_index
            drawn = self.selector.draw(
                budgets[index],
                self._candidates,
                self.evidence if self.selector.reads_evidence else None,
                index,
                len(budgets),
                self._rng,
            )
            if drawn is not None:
                return drawn
            # Nothing askable this round; skip it transparently.
            self._round_index += 1
            self._advance_past_empty_rounds()
        return None

    def _resolve(self, answers: np.ndarray, n_answered: int) -> None:
        """Adopt the round's *answers* mask; close the round when full."""
        self._answered, self._n_answered = answers, n_answered
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


def open_rounds(sessions: Sequence[MaxSession]) -> None:
    """Open the next round of every session in *sessions* that has none.

    Each closed, unfinished session draws its round with its RNG, in the
    order of *sessions* (sessions may share one stream, whatever their
    selectors), skipping rounds that select nothing.  Then each selector
    deals all the rounds its sessions drew at once
    (:meth:`~repro.selection.base.QuestionSelector.deal`), and one pass
    keys and checks every opened round.  Sessions with a round open, and
    finished ones, are left as they are.

    Raises:
        InvalidParameterError: if a selector overspent its round budget,
            or a dealt round does not hold distinct pairs of distinct
            elements; no round is opened then.
    """
    groups: Dict[QuestionSelector, Tuple[List[MaxSession], List[Any]]] = {}
    for session in sessions:
        if session._pending is None:
            drawn = session._draw()
            if drawn is not None:
                group = groups.get(session.selector)
                if group is None:
                    group = groups[session.selector] = ([], [])
                group[0].append(session)
                group[1].append(drawn)
    if not groups:
        return
    opened: List[MaxSession] = []
    dealt: List[np.ndarray] = []
    lengths: List[int] = []
    for selector, (members, draws) in groups.items():
        questions, counts = selector.deal(draws)
        opened += members
        dealt.append(questions)
        lengths += counts
    _hand_out(
        opened, dealt[0] if len(dealt) == 1 else np.concatenate(dealt), lengths
    )


def _hand_out(
    sessions: Sequence[MaxSession], questions: np.ndarray, lengths: List[int]
) -> None:
    """Open the next ``lengths[i]`` rows of *questions* as
    ``sessions[i]``'s round, none of it answered.

    One pass keys every question (see :func:`_key_space`), so one stable
    argsort sorts each session's keys in its own slice.  A round that
    asks only candidates asks no pair the evidence holds (every answered
    pair has a loser); any other round is marked stale, and its answers
    are checked against the evidence when they arrive.
    """
    sizes, bases = _key_space(sessions)
    starts = np.cumsum(lengths) - lengths
    questions.flags.writeable = False
    row_sizes = np.repeat(sizes, lengths)
    row_bases = np.repeat(bases, lengths)
    a, b = questions[:, 0], questions[:, 1]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    keys = lo * row_sizes + hi + row_bases
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if (
        np.count_nonzero((lo < 0) | (lo == hi) | (hi >= row_sizes))
        or np.count_nonzero(keys[1:] == keys[:-1])
    ):
        raise InvalidParameterError(
            "a round's questions must be distinct pairs of distinct "
            "elements of its collection"
        )
    # The bases keep each session's keys in its own slice of the sort.
    keys -= row_bases
    order -= np.repeat(starts, lengths)
    held = [session._candidates for session in sessions]
    element_bases = np.cumsum(sizes) - sizes
    candidate = np.zeros(int(sizes.sum()), bool)
    candidate[
        np.concatenate(held)
        + np.repeat(element_bases, np.fromiter(map(len, held), np.int64, len(held)))
    ] = True
    row_elements = np.repeat(element_bases, lengths)
    stale = np.zeros(len(sessions), bool)
    stale[
        np.repeat(np.arange(len(sessions)), lengths)[
            ~(candidate[lo + row_elements] & candidate[hi + row_elements])
        ]
    ] = True
    masks = np.zeros(len(keys), bool)
    for session, first, length, asks_loser in zip(
        sessions, starts.tolist(), lengths, stale.tolist()
    ):
        end = first + length
        session._stale = asks_loser
        session._pending = questions[first:end]
        session._keys = keys[first:end]
        session._key_order = order[first:end]
        session._answered = masks[first:end]
        session._n_answered = 0
    if PROFILER.enabled:
        PROFILER.add("session.open_passes")
        PROFILER.add("session.rounds_opened", len(sessions))


def submit_rounds(
    sessions: Sequence[MaxSession],
    rows: Union[np.ndarray, Sequence[Answer]],
    counts: Sequence[int],
) -> None:
    """Record one shared round's answers for several sessions at once.

    *rows* is a ``(k, 2)`` int array of local ``(winner, loser)`` rows, or
    a sequence of :class:`~repro.types.Answer` s, grouped by session: the
    first ``counts[0]`` answer ``sessions[0]``'s open round, the next
    ``counts[1]`` ``sessions[1]``'s, and so on.  The sessions must be
    distinct and each must have a round open; its rows may answer any
    subset of that round's unanswered questions, and a session whose
    round becomes fully answered resolves it, exactly as
    :meth:`MaxSession.submit`.

    The batch is all-or-nothing: one validation pass checks every row of
    every session before any session records anything.

    Raises:
        SessionStateError: if a session has no round open, or a row is
            foreign to its session's round, repeated, already answered or
            compares an element with itself; nothing is recorded then.
        InvalidParameterError: if *rows* is not ``(k, 2)`` int, a
            session is listed twice, or *counts* does not split *rows*
            into one slice per session.
        InconsistentAnswersError: if a row contradicts an earlier answer
            in its session's evidence (the sessions before it stay
            recorded, as with one :meth:`MaxSession.submit` per session).
    """
    if any(session._pending is None for session in sessions):
        raise SessionStateError(
            "no pending questions; call pending_questions() first"
        )
    rows = _answer_rows(rows)
    if (
        len(counts) != len(sessions)
        or sum(counts) != len(rows)
        or min(counts, default=0) < 0
    ):
        raise InvalidParameterError(
            f"counts must give one row count per session, summing to the "
            f"{len(rows)} rows"
        )
    if len({id(session) for session in sessions}) < len(sessions):
        raise InvalidParameterError("a session is listed twice")
    if not sessions:
        return
    sizes, bases = _key_space(sessions)
    lengths = [len(session._keys) for session in sessions]
    starts = np.cumsum(lengths) - lengths
    round_keys = np.concatenate([session._keys for session in sessions])
    round_keys += np.repeat(bases, lengths)
    key_order = np.concatenate([session._key_order for session in sessions])
    key_order += np.repeat(starts, lengths)
    answered = np.concatenate([session._answered for session in sessions])
    row_sizes = np.repeat(sizes, counts)
    winners, losers = rows[:, 0], rows[:, 1]
    lo, hi = np.minimum(winners, losers), np.maximum(winners, losers)
    keys = lo * row_sizes + hi + np.repeat(bases, counts)
    slots = np.minimum(np.searchsorted(round_keys, keys), len(round_keys) - 1)
    known = (round_keys[slots] == keys) & (lo >= 0) & (lo < hi) & (hi < row_sizes)
    # Every row names a question of its session's round, and marking them
    # adds one answer per row: no row repeats another or an earlier answer.
    answered[key_order[slots]] = True
    n_answered = np.add.reduceat(answered, starts, dtype=np.int64)
    before = np.array([session._n_answered for session in sessions])
    if np.count_nonzero(known) < len(rows) or not np.array_equal(
        n_answered - before, counts
    ):
        raise SessionStateError(
            f"answers must match distinct unanswered questions of the "
            f"round; foreign, repeated or already answered "
            f"(unknown: {rows[~known][:5].tolist()})"
        )
    forward = winners * row_sizes + losers
    survivors = iter(_survivors(sessions, sizes, losers, counts))
    start = 0
    for session, count, first, length, total in zip(
        sessions, counts, starts.tolist(), lengths, n_answered.tolist()
    ):
        end = start + count
        if count:
            if session._stale:
                # The round may re-ask an answered pair: check the rows
                # against the evidence, which stops at a contradiction.
                session.evidence.record_keyed(
                    losers[start:end],
                    *directed_keys(
                        winners[start:end], losers[start:end],
                        session._n_elements,
                    ),
                )
            else:
                session._unfolded.append(forward[start:end])
            session._candidates = next(survivors)
        session._resolve(answered[first:first + length], total)
        start = end
    if PROFILER.enabled:
        PROFILER.add("session.submit_passes")


def _survivors(
    sessions: Sequence[MaxSession],
    sizes: np.ndarray,
    losers: np.ndarray,
    counts: Sequence[int],
) -> List[np.ndarray]:
    """The candidates each session with rows keeps: its candidates less
    the losers of its ``counts[i]`` rows, found in one pass over the rows
    and returned as slices of one array.

    Element ``e`` of a session sits at ``base + e``, where ``base`` is
    the sum of the collection sizes before it.  A session may hold no
    candidates yet still answer (contradictory answers can eliminate
    every element before its round is fully answered).
    """
    answering = np.flatnonzero(counts)
    if not len(answering):
        return []
    held = [sessions[index]._candidates for index in answering.tolist()]
    lengths = np.fromiter(map(len, held), np.int64, len(held))
    flat = np.concatenate(held)
    bases = np.cumsum(sizes) - sizes
    lost = np.zeros(int(sizes.sum()), bool)
    lost[losers + np.repeat(bases, counts)] = True
    keep = ~lost[flat + np.repeat(bases[answering], lengths)]
    kept = flat[keep]
    # Kept candidates before each session's end, empty slices included.
    ends = np.concatenate(([0], np.cumsum(keep)))[np.cumsum(lengths)].tolist()
    return [kept[a:b] for a, b in zip([0] + ends, ends)]


def _key_space(sessions: Sequence[MaxSession]) -> Tuple[np.ndarray, np.ndarray]:
    """Each session's collection size ``n`` and key base.

    A question ``(lo, hi)`` of a session is keyed ``base + lo * n + hi``,
    where ``base`` is the sum of ``n**2`` over the sessions before it, so
    the keys of different sessions never meet and sort session by session.
    """
    sizes = np.array([session._n_elements for session in sessions], np.int64)
    squares = sizes * sizes
    return sizes, np.cumsum(squares) - squares


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
