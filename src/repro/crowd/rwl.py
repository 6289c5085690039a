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
* **cycle resolution** — the majority answers of one :meth:`ask` call
  are checked for a preference cycle.  If one remains, *all* of the
  call's answers are re-oriented to agree with one Copeland-style ranking
  of the call's elements (sorted by their weighted vote wins), which is
  guaranteed acyclic.  When the majority answers are already consistent
  (always true for perfect workers), they are returned untouched.

The scope of the repair is one call, not the evidence recorded before
it.  In the service one call posts a backend's whole sub-batch, the
rounds of many queries, so a cycle in one query's clique re-orients the
answers of acyclic cliques posted beside it; and the part of a round
answered in a later tick is repaired on its own, so two repairs can
together close a cycle in a query's evidence (the scheduler then ends
that query degraded).

A call is a fixed handful of NumPy passes: ``(lo, hi)`` columns from
``minimum``/``maximum``, one stable argsort of a ``(lo, hi)`` code on ids
relative to the least element for the distinct questions, one
``bincount`` tally, and a one-pass certificate of acyclicity that falls
back to an exact peel only when it cannot decide.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.crowd.breaker import BreakerState, CircuitBreaker
from repro.crowd.faults import RetryPolicy
from repro.crowd.platform import Platform, Questions, as_pairs, columns_equal
from repro.errors import InvalidParameterError, PlatformOutageError
from repro.graphs.answer_graph import peel_passes
from repro.obs.events import BatchRetried, RWLRetry
from repro.obs.metrics import get_registry
from repro.obs.profiling import PROFILER
from repro.obs.spans import current_span, emit_span, span_scope
from repro.obs.tracer import current_tracer

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class RWLResult:
    """Output of one RWL round.

    Attributes:
        questions: ``(k, 2)`` int64, the *answered* distinct questions as
            ``(lo, hi)`` pairs with ``lo < hi``, in first-appearance
            order (all of them, unless faults exhausted the retry policy).
        winners: ``(k,)`` int64, one conflict-free winner per question.
        latency: seconds the round took — all platform batches plus the
            backoff waits between retry attempts.
        questions_posted: total posted copies over all attempts
            (``distinct * repetition`` when nothing was retried).
        majority_flips: answers whose final direction disagrees with the
            majority vote (non-zero only when cycle resolution fired).
        attempts: posting attempts made (1 = no retries).
        unanswered: ``(u, 2)`` int64, the distinct questions that never
            received any answer — non-empty only when a fault-injecting
            platform lost answers and the retry policy ran out of
            attempts or deadline.
    """

    questions: np.ndarray
    winners: np.ndarray
    latency: float
    questions_posted: int
    majority_flips: int
    attempts: int = 1
    unanswered: np.ndarray = field(
        default_factory=lambda: np.empty((0, 2), np.int64)
    )

    __eq__ = columns_equal

    @property
    def answers(self) -> np.ndarray:
        """``(k, 2)`` int64 rows of ``(winner, loser)``."""
        losers = self.questions.sum(axis=1) - self.winners
        return np.column_stack((self.winners, losers))


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
        questions: Questions,
        *,
        budget: Optional[float] = None,
    ) -> RWLResult:
        """Resolve *questions* into a conflict-free answer per question.

        Args:
            questions: the round's (possibly repeated) question pairs, as
                an ``(n, 2)`` int array or a sequence of pairs.
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
        pairs = as_pairs(questions)
        lo = np.minimum(pairs[:, 0], pairs[:, 1])
        hi = np.maximum(pairs[:, 0], pairs[:, 1])
        if (lo == hi).any():
            raise ValueError("cannot compare an element with itself")
        if not len(lo):
            logger.debug("RWL asked to resolve an empty question set")
            distinct = np.empty((0, 2), np.int64)
            return RWLResult(distinct, distinct[:, 0], 0.0, 0, 0)
        # Element ids relative to the batch's least one: the (lo, hi) code
        # below and the cycle check work on arrays of ``span`` entries.
        base = int(lo.min())
        span = int(hi.max()) - base + 1
        # Distinct questions in first-appearance order: a stable sort puts
        # each question's first row ahead of its repeats.
        keys = lo * span + hi
        order = keys.argsort(kind="stable")
        ranked = keys[order]
        repeats = order[1:][ranked[1:] == ranked[:-1]]
        if len(repeats):
            first = np.ones(len(keys), dtype=bool)
            first[repeats] = False
            lo, hi = lo[first], hi[first]
        distinct = np.column_stack((lo, hi))
        n_distinct = len(distinct)
        rows, winners, pending, total_latency, questions_posted, attempts = (
            self._post_with_retries(distinct, budget=budget)
        )
        # Tally: each raw answer is a vote for its question's hi (even
        # bin) or lo (odd bin).
        tally = np.bincount(
            2 * rows + (winners == lo[rows]), minlength=2 * n_distinct
        )
        hi_votes, lo_votes = tally[0::2], tally[1::2]
        resolved, unanswered = distinct, distinct[:0]
        if len(pending):
            answered = np.ones(n_distinct, dtype=bool)
            answered[pending] = False
            unanswered = distinct[pending]
            resolved = distinct[answered]
            lo, hi = lo[answered], hi[answered]
            lo_votes, hi_votes = lo_votes[answered], hi_votes[answered]
        majority = self._majority(lo, hi, lo_votes, hi_votes)
        final, flips, repaired = majority, 0, False
        if not _acyclic(majority - base, lo + hi - majority - base, span):
            final = self._rank_and_orient(
                resolved, lo_votes, lo_votes + hi_votes
            )
            flips = int((final != majority).sum())
            repaired = True
        registry = get_registry()
        registry.counter("rwl.batches").inc()
        registry.counter("rwl.distinct_questions").inc(n_distinct)
        registry.counter("rwl.questions_posted").inc(questions_posted)
        if len(unanswered):
            registry.counter("rwl.unanswered").inc(len(unanswered))
            logger.warning(
                "RWL degraded: %d of %d questions never answered after "
                "%d attempt(s)",
                len(unanswered),
                n_distinct,
                attempts,
            )
        if repaired:
            registry.counter("rwl.cycle_repairs").inc()
            registry.counter("rwl.majority_flips").inc(flips)
            logger.warning(
                "RWL cycle resolution fired: %d of %d majority answers "
                "re-oriented (repetition %d)",
                flips,
                n_distinct,
                self.repetition,
            )
            tracer = current_tracer()
            if tracer.enabled:
                tracer.emit(
                    RWLRetry(
                        distinct_questions=n_distinct,
                        questions_posted=questions_posted,
                        repetition=self.repetition,
                        majority_flips=flips,
                    )
                )
        return RWLResult(
            questions=resolved,
            winners=final,
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
        distinct: np.ndarray,
        *,
        budget: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float, int, int]:
        """Post *distinct* (times repetition), retrying unanswered questions.

        Each answer's posted row (:attr:`BatchResult.rows`) maps it back
        to its row of *distinct*.

        Returns ``(row of distinct per raw answer, raw winners, rows of
        distinct never answered, round latency, posted copies,
        attempts)``.  Without a retry policy this is a single post.
        """
        policy = self.retry_policy
        repetition = self.repetition
        rows: List[np.ndarray] = []
        winners: List[np.ndarray] = []
        answered = np.zeros(len(distinct), dtype=bool)
        # The first attempt posts every row; ``pending`` is then the rows
        # still unanswered and ``asked`` their questions.
        pending = np.arange(len(distinct))
        asked = distinct
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
        while len(pending):
            if breaker is not None and not breaker.allow_post():
                logger.info(
                    "circuit open: %d question(s) left unposted",
                    len(pending),
                )
                break
            attempt += 1
            posted = (
                asked if repetition == 1 else np.repeat(asked, repetition, axis=0)
            )
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
                batch_rows = batch.rows
                if repetition > 1:
                    batch_rows = batch_rows // repetition
                if asked is not distinct:
                    batch_rows = pending[batch_rows]
                rows.append(batch_rows)
                winners.append(batch.winners)
                answered[batch_rows] = True
                pending = np.flatnonzero(~answered)
                if len(pending):
                    asked = distinct[pending]
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
            if not len(pending) or policy is None:
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
        return (
            _joined(rows),
            _joined(winners),
            pending,
            total_latency,
            questions_posted,
            attempt,
        )

    # ------------------------------------------------------------------
    # Voting
    # ------------------------------------------------------------------
    def _majority(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        lo_votes: np.ndarray,
        hi_votes: np.ndarray,
    ) -> np.ndarray:
        """Each question's majority winner; ties break by a fair coin."""
        lo_wins = lo_votes > hi_votes
        ties = np.flatnonzero(lo_votes == hi_votes)
        if len(ties):
            lo_wins[ties] = self._rng.random(len(ties)) < 0.5
        return np.where(lo_wins, lo, hi)

    # ------------------------------------------------------------------
    # Cycle resolution
    # ------------------------------------------------------------------
    def _rank_and_orient(
        self, questions: np.ndarray, lo_votes: np.ndarray, votes: np.ndarray
    ) -> np.ndarray:
        """Copeland-style repair: rank by weighted wins, orient every pair.

        An element's strength is the sum of its vote shares; ties in
        strength break by one random draw per element.
        """
        elements, local = np.unique(questions, return_inverse=True)
        local = local.reshape(questions.shape)
        shares = np.column_stack((lo_votes, votes - lo_votes)) / votes[:, None]
        strength = np.bincount(local.ravel(), weights=shares.ravel())
        tie_break = self._rng.random(len(elements))
        ranking = np.lexsort((tie_break, strength))[::-1]
        position = np.empty(len(elements), dtype=np.int64)
        position[ranking] = np.arange(len(elements))
        lo_first = position[local[:, 0]] < position[local[:, 1]]
        return np.where(lo_first, questions[:, 0], questions[:, 1])


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    """The attempts' int64 columns end to end (one attempt's as it is)."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate([*parts, np.empty(0, dtype=np.int64)])


def _acyclic(winners: np.ndarray, losers: np.ndarray, size: int) -> bool:
    """Whether the answer edges ``winners[i] -> losers[i]`` form no cycle.

    Elements are in ``range(size)``.  First a one-pass certificate: when
    every edge's winner won strictly more of the edges than its loser,
    wins fall along every path, so no path returns to where it began.
    That holds for every error-free round of disjoint cliques.  Otherwise
    the exact check is :func:`~repro.graphs.answer_graph.peel_passes`;
    the passes it runs are its deepest edge's, and one more that peels
    nothing when it stops at a cycle.
    """
    wins = np.bincount(winners, minlength=size)
    if (wins[winners] > wins[losers]).all():
        return True
    passes = peel_passes(winners, losers, size)
    acyclic = bool(passes.all())
    if PROFILER.enabled:
        PROFILER.add("rwl.cycle_peels", int(passes.max()) + (not acyclic))
    return acyclic
