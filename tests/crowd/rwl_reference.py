"""The Reliable Worker Layer's former front half, kept as a test reference.

:class:`ReferenceRWL` is :class:`repro.crowd.rwl.ReliableWorkerLayer` with
the ``ask`` front half, retry loop, majority vote and acyclicity check it
ran before they became a fixed handful of array passes: an ``np.sort`` of
every row, an ``np.unique`` code over absolute element ids, one list
entry per posting attempt, and :func:`reference_acyclic`, which peels
source edges pass by pass over a mask as large as the largest element
id.  Its cycle repair is the layer's own.  ``tests/crowd/test_rwl_front.py``
drives both with the same rows and RNG seeds and compares every result
field and RNG state.
"""

import numpy as np

from repro.crowd.breaker import BreakerState
from repro.crowd.platform import as_pairs
from repro.crowd.rwl import ReliableWorkerLayer, RWLResult
from repro.errors import PlatformOutageError


class ReferenceRWL(ReliableWorkerLayer):
    """The layer with its former front half (no tracing, no metrics)."""

    def ask(self, questions, *, budget=None):
        pairs = np.sort(as_pairs(questions), axis=1)
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise ValueError("cannot compare an element with itself")
        stride = int(pairs.max()) + 1 if len(pairs) else 1
        keys = pairs[:, 0] * stride + pairs[:, 1]
        first = np.sort(np.unique(keys, return_index=True)[1])
        distinct = pairs[first]
        n_distinct = len(distinct)
        if not n_distinct:
            return RWLResult(distinct, distinct[:, 0], 0.0, 0, 0)
        rows, winners, answered, total_latency, questions_posted, attempts = (
            self._reference_post(distinct, budget)
        )
        unanswered = distinct[~answered]
        resolved = distinct[answered]
        lo_won = winners == distinct[rows, 0]
        lo_votes = np.bincount(rows[lo_won], minlength=n_distinct)[answered]
        votes = np.bincount(rows, minlength=n_distinct)[answered]
        hi_votes = votes - lo_votes
        lo_wins = lo_votes > hi_votes
        ties = np.flatnonzero(lo_votes == hi_votes)
        if len(ties):
            lo_wins[ties] = self._rng.random(len(ties)) < 0.5
        majority = np.where(lo_wins, resolved[:, 0], resolved[:, 1])
        final, flips = majority, 0
        if not reference_acyclic(majority, resolved.sum(axis=1) - majority, stride):
            final = self._rank_and_orient(resolved, lo_votes, votes)
            flips = int((final != majority).sum())
        return RWLResult(
            questions=resolved,
            winners=final,
            latency=total_latency,
            questions_posted=questions_posted,
            majority_flips=flips,
            attempts=attempts,
            unanswered=unanswered,
        )

    def _reference_post(self, distinct, budget):
        policy = self.retry_policy
        breaker = self.breaker
        rows = [np.empty(0, dtype=np.int64)]
        winners = [np.empty(0, dtype=np.int64)]
        answered = np.zeros(len(distinct), dtype=bool)
        pending = np.arange(len(distinct))
        total_latency = 0.0
        questions_posted = 0
        attempt = 0
        while len(pending):
            if breaker is not None and not breaker.allow_post():
                break
            attempt += 1
            posted = np.repeat(distinct[pending], self.repetition, axis=0)
            try:
                batch = self.platform.post_batch(posted)
            except PlatformOutageError as outage:
                if breaker is not None:
                    breaker.record_outage()
                if policy is None:
                    raise
                total_latency += outage.wasted_seconds
            else:
                if breaker is not None:
                    breaker.record_success()
                questions_posted += len(posted)
                total_latency += batch.completion_time
                batch_rows = pending[batch.rows // self.repetition]
                rows.append(batch_rows)
                winners.append(batch.winners)
                answered[batch_rows] = True
                pending = np.flatnonzero(~answered)
            if not len(pending) or policy is None:
                break
            if attempt >= policy.max_attempts:
                break
            if breaker is not None and breaker.state is BreakerState.OPEN:
                break
            backoff = policy.backoff_seconds(attempt, self._rng)
            if policy.deadline is not None and total_latency + backoff >= policy.deadline:
                break
            if budget is not None and total_latency + backoff > budget:
                remaining = budget - total_latency
                if remaining <= 0:
                    break
                backoff = remaining
            total_latency += backoff
        return (
            np.concatenate(rows),
            np.concatenate(winners),
            answered,
            total_latency,
            questions_posted,
            attempt,
        )


def reference_acyclic(winners, losers, stride):
    """Whether the edges ``winners[i] -> losers[i]`` (elements below
    *stride*) form no cycle: peel every edge whose winner never lost among
    the live edges, pass by pass, until none is left or none peels."""
    lost = np.zeros(stride, dtype=bool)
    while len(winners):
        lost[:] = False
        lost[losers] = True
        beaten = lost[winners]
        if beaten.all():
            return False
        winners, losers = winners[beaten], losers[beaten]
    return True
