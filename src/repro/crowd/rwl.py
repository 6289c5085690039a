"""The Reliable Worker Layer (RWL) of Section 2.1.

The paper's algorithms assume "a single comparison is sufficient for
resolving the true relation" of two elements, and delegate error handling to
an RWL sitting between the algorithms and the platform: "The input to RWL,
in each round, is a set of questions and the output is a conflict-free set
of correct answers; with one answer per question."

This implementation harnesses the two technique families the paper cites:

* **question repetition + majority voting** — each question is posted
  ``repetition`` times inside the same platform batch (so the round count is
  unchanged), and the majority answer wins;
* **cycle resolution** — if the majority answers still contain a preference
  cycle, the answers are re-oriented to agree with a local Copeland-style
  ranking (elements sorted by their weighted vote wins), which is guaranteed
  acyclic.  When the majority answers are already consistent (always true
  for perfect workers), they are returned untouched.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.crowd.breaker import BreakerState, CircuitBreaker
from repro.crowd.faults import RetryPolicy
from repro.crowd.platform import Platform
from repro.errors import (
    InconsistentAnswersError,
    InvalidParameterError,
    PlatformOutageError,
)
from repro.graphs.answer_graph import AnswerGraph
from repro.obs.events import BatchRetried, RWLRetry
from repro.obs.metrics import get_registry
from repro.obs.spans import current_span, emit_span, span_scope
from repro.obs.tracer import current_tracer
from repro.types import Answer, Element, Question, normalize_question

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RWLResult:
    """Output of one RWL round.

    Attributes:
        answers: one conflict-free answer per *answered* distinct question
            (all of them, unless faults exhausted the retry policy).
        latency: seconds the round took — all platform batches plus the
            backoff waits between retry attempts.
        questions_posted: total posted copies over all attempts
            (``distinct * repetition`` when nothing was retried).
        majority_flips: answers whose final direction disagrees with the
            majority vote (non-zero only when cycle resolution fired).
        attempts: posting attempts made (1 = no retries).
        unanswered: distinct questions that never received any answer —
            non-empty only when a fault-injecting platform lost answers
            and the retry policy ran out of attempts or deadline.
    """

    answers: Tuple[Answer, ...]
    latency: float
    questions_posted: int
    majority_flips: int
    attempts: int = 1
    unanswered: Tuple[Question, ...] = ()


class ReliableWorkerLayer:
    """Repetition + majority voting + cycle resolution on top of a platform.

    With a :class:`~repro.crowd.faults.RetryPolicy` the layer also absorbs
    platform faults: whenever a batch comes back with distinct questions
    unanswered (lost/abandoned answers) or is swallowed by an outage, only
    the unanswered questions are re-posted after an exponential backoff,
    until every question has an answer or the policy's attempt/deadline
    budget runs out.  Questions still unanswered at that point are
    reported in :attr:`RWLResult.unanswered` and the layer returns a
    conflict-free answer set for the questions that did resolve — the
    engines degrade gracefully on the partial answers.
    """

    def __init__(
        self,
        platform: Platform,
        rng: np.random.Generator,
        repetition: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if repetition < 1:
            raise InvalidParameterError(f"repetition must be >= 1: {repetition}")
        self.platform = platform
        self.repetition = repetition
        self.retry_policy = retry_policy
        self.breaker = breaker
        self._rng = rng

    def ask(
        self,
        questions: Sequence[Question],
        *,
        budget: Optional[float] = None,
    ) -> RWLResult:
        """Resolve *questions* into a conflict-free answer per question.

        Args:
            questions: the round's (possibly repeated) question pairs.
            budget: optional remaining *per-query latency budget* in
                seconds.  Retry backoff sleeps are clipped to it: a sleep
                that would overshoot the budget is truncated to the exact
                remainder (the retry still happens), and once no budget
                remains the round degrades instead of sleeping on.  This
                is enforced *in addition to* the retry policy's own
                global deadline, never instead of it.

        Raises:
            PlatformOutageError: only when no retry policy is configured
                and the platform loses the whole batch; with a policy the
                outage is retried (and, past the policy's limits, degraded
                into ``unanswered`` questions).
        """
        distinct = list(dict.fromkeys(normalize_question(a, b) for a, b in questions))
        if not distinct:
            logger.debug("RWL asked to resolve an empty question set")
            return RWLResult((), 0.0, 0, 0)
        raw_answers, total_latency, questions_posted, attempts = (
            self._post_with_retries(distinct, budget=budget)
        )
        answered = {answer.question for answer in raw_answers}
        resolved = [pair for pair in distinct if pair in answered]
        unanswered = tuple(pair for pair in distinct if pair not in answered)
        votes = self._tally(batch_answers=raw_answers)
        majority = {
            pair: self._majority_winner(pair, votes[pair]) for pair in resolved
        }
        if resolved:
            answers, flips, repaired = self._resolve_cycles(
                resolved, majority, votes
            )
        else:
            answers, flips, repaired = [], 0, False
        registry = get_registry()
        registry.counter("rwl.batches").inc()
        registry.counter("rwl.distinct_questions").inc(len(distinct))
        registry.counter("rwl.questions_posted").inc(questions_posted)
        if unanswered:
            registry.counter("rwl.unanswered").inc(len(unanswered))
            logger.warning(
                "RWL degraded: %d of %d questions never answered after "
                "%d attempt(s)",
                len(unanswered),
                len(distinct),
                attempts,
            )
        if repaired:
            registry.counter("rwl.cycle_repairs").inc()
            registry.counter("rwl.majority_flips").inc(flips)
            logger.warning(
                "RWL cycle resolution fired: %d of %d majority answers "
                "re-oriented (repetition %d)",
                flips,
                len(distinct),
                self.repetition,
            )
            tracer = current_tracer()
            if tracer.enabled:
                tracer.emit(
                    RWLRetry(
                        distinct_questions=len(distinct),
                        questions_posted=questions_posted,
                        repetition=self.repetition,
                        majority_flips=flips,
                    )
                )
        return RWLResult(
            answers=tuple(answers),
            latency=total_latency,
            questions_posted=questions_posted,
            majority_flips=flips,
            attempts=attempts,
            unanswered=unanswered,
        )

    # ------------------------------------------------------------------
    # Posting + retries
    # ------------------------------------------------------------------
    def _post_with_retries(
        self,
        distinct: List[Question],
        *,
        budget: Optional[float] = None,
    ) -> Tuple[List[Answer], float, int, int]:
        """Post *distinct* (times repetition), retrying unanswered questions.

        Returns ``(raw worker answers, round latency, posted copies,
        attempts)``.  Without a retry policy this is a single post — and,
        on a fault-free platform, byte-identical to the pre-fault-layer
        behaviour.
        """
        policy = self.retry_policy
        raw_answers: List[Answer] = []
        answered: Set[Question] = set()
        pending = list(distinct)
        total_latency = 0.0
        questions_posted = 0
        attempt = 0
        registry = get_registry()
        breaker = self.breaker
        tracer = current_tracer()
        # When a span scope is ambient (the scheduler's tick span, or an
        # engine round span), each posting attempt becomes a child span —
        # anchored on the global simulated clock via the scope's base time
        # plus this round's local latency accumulator.
        scope = current_span() if tracer.enabled else None
        while pending:
            if breaker is not None and not breaker.allow_post():
                logger.info(
                    "circuit open: %d question(s) left unposted",
                    len(pending),
                )
                break
            attempt += 1
            posted = [pair for pair in pending for _ in range(self.repetition)]
            attempt_start = total_latency
            attempt_id = (
                f"{scope.span_id}/a{attempt}" if scope is not None else None
            )
            try:
                if attempt_id is not None:
                    with span_scope(attempt_id, scope.base_time):
                        batch = self.platform.post_batch(posted)
                else:
                    batch = self.platform.post_batch(posted)
            except PlatformOutageError as outage:
                if breaker is not None:
                    breaker.record_outage()
                if policy is None:
                    raise
                total_latency += outage.wasted_seconds
                reason = "outage"
                if attempt_id is not None:
                    emit_span(
                        tracer,
                        attempt_id,
                        "attempt",
                        start=scope.base_time + attempt_start,
                        end=scope.base_time + total_latency,
                        parent_id=scope.span_id,
                        detail=f"{len(posted)} posted",
                        status="outage",
                    )
            else:
                if breaker is not None:
                    breaker.record_success()
                questions_posted += len(posted)
                total_latency += batch.completion_time
                raw_answers.extend(wa.answer for wa in batch.worker_answers)
                answered.update(wa.answer.question for wa in batch.worker_answers)
                pending = [pair for pair in pending if pair not in answered]
                reason = "unanswered"
                if attempt_id is not None:
                    emit_span(
                        tracer,
                        attempt_id,
                        "attempt",
                        start=scope.base_time + attempt_start,
                        end=scope.base_time + total_latency,
                        parent_id=scope.span_id,
                        detail=f"{len(posted)} posted",
                    )
            if not pending or policy is None:
                break
            if attempt >= policy.max_attempts:
                logger.debug(
                    "retry budget exhausted: %d question(s) unanswered "
                    "after %d attempts",
                    len(pending),
                    attempt,
                )
                break
            if breaker is not None and breaker.state is BreakerState.OPEN:
                # The circuit just tripped; stop burning retry attempts
                # (and backoff latency) against a dead platform.
                logger.debug(
                    "circuit opened mid-round; abandoning retries for "
                    "%d question(s)",
                    len(pending),
                )
                break
            backoff = policy.backoff_seconds(attempt, self._rng)
            if (
                policy.deadline is not None
                and total_latency + backoff >= policy.deadline
            ):
                logger.debug(
                    "retry deadline hit: %.1f s + %.1f s backoff >= %.1f s "
                    "deadline; degrading with %d unanswered question(s)",
                    total_latency,
                    backoff,
                    policy.deadline,
                    len(pending),
                )
                break
            if budget is not None and total_latency + backoff > budget:
                # Per-query budget: truncate the sleep to the exact
                # remainder so the retry still happens at the boundary
                # tick — skipping it wholesale would waste budget that
                # could still buy an answer.
                remaining = budget - total_latency
                if remaining <= 0:
                    logger.debug(
                        "query budget exhausted: %.1f s spent of %.1f s; "
                        "degrading with %d unanswered question(s)",
                        total_latency,
                        budget,
                        len(pending),
                    )
                    break
                logger.debug(
                    "retry backoff truncated to the remaining query "
                    "budget: %.1f s -> %.1f s",
                    backoff,
                    remaining,
                )
                backoff = remaining
            total_latency += backoff
            registry.counter("rwl.retries").inc()
            logger.debug(
                "retrying %d unanswered question(s) after %.1f s backoff "
                "(attempt %d, reason: %s)",
                len(pending),
                backoff,
                attempt + 1,
                reason,
            )
            if tracer.enabled:
                tracer.emit(
                    BatchRetried(
                        attempt=attempt + 1,
                        distinct_questions=len(pending),
                        questions_reposted=len(pending) * self.repetition,
                        backoff_seconds=backoff,
                        reason=reason,
                        span_id=scope.span_id if scope is not None else "",
                    ),
                    sim_time=total_latency,
                )
        return raw_answers, total_latency, questions_posted, attempt

    # ------------------------------------------------------------------
    # Voting
    # ------------------------------------------------------------------
    @staticmethod
    def _tally(
        batch_answers: Sequence[Answer],
    ) -> Dict[Question, Dict[Element, int]]:
        votes: Dict[Question, Dict[Element, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for answer in batch_answers:
            votes[answer.question][answer.winner] += 1
        return votes

    def _majority_winner(
        self, pair: Question, pair_votes: Dict[Element, int]
    ) -> Element:
        a, b = pair
        votes_a, votes_b = pair_votes.get(a, 0), pair_votes.get(b, 0)
        if votes_a > votes_b:
            return a
        if votes_b > votes_a:
            return b
        return a if self._rng.random() < 0.5 else b

    # ------------------------------------------------------------------
    # Cycle resolution
    # ------------------------------------------------------------------
    def _resolve_cycles(
        self,
        distinct: List[Question],
        majority: Dict[Question, Element],
        votes: Dict[Question, Dict[Element, int]],
    ) -> Tuple[List[Answer], int, bool]:
        """Returns (answers, flips, whether cycle repair fired)."""
        elements: Set[Element] = {e for pair in distinct for e in pair}
        graph = AnswerGraph(elements)
        majority_answers: List[Answer] = []
        for pair in distinct:
            winner = majority[pair]
            loser = pair[1] if winner == pair[0] else pair[0]
            answer = Answer(winner=winner, loser=loser)
            majority_answers.append(answer)
            graph.record(answer)
        try:
            graph.validate_acyclic()
        except InconsistentAnswersError:
            answers, flips = self._rank_and_orient(
                distinct, majority, votes, elements
            )
            return answers, flips, True
        return majority_answers, 0, False

    def _rank_and_orient(
        self,
        distinct: List[Question],
        majority: Dict[Question, Element],
        votes: Dict[Question, Dict[Element, int]],
        elements: Set[Element],
    ) -> Tuple[List[Answer], int]:
        """Copeland-style repair: rank by weighted wins, orient every pair."""
        strength: Dict[Element, float] = {e: 0.0 for e in elements}
        for pair in distinct:
            a, b = pair
            total = votes[pair].get(a, 0) + votes[pair].get(b, 0)
            if total == 0:
                continue
            strength[a] += votes[pair].get(a, 0) / total
            strength[b] += votes[pair].get(b, 0) / total
        ranking = sorted(
            elements, key=lambda e: (strength[e], self._rng.random()), reverse=True
        )
        rank = {element: position for position, element in enumerate(ranking)}
        answers: List[Answer] = []
        flips = 0
        for pair in distinct:
            a, b = pair
            winner = a if rank[a] < rank[b] else b
            loser = b if winner == a else a
            if winner != majority[pair]:
                flips += 1
            answers.append(Answer(winner=winner, loser=loser))
        return answers, flips
