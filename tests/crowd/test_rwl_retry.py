"""Tests for the RWL retry/backoff/degradation path (repro.crowd.faults).

The bare-platform behaviour of the RWL is covered by
``tests/crowd/test_rwl.py``; this module exercises the layer on top of a
fault-injecting platform.
"""

import numpy as np
import pytest

from repro import obs
from repro.crowd.faults import (
    FaultProfile,
    FaultyPlatform,
    RetryPolicy,
    fault_profile_by_name,
)
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer
from repro.errors import PlatformOutageError


def _chain(n_questions):
    return [(i, i + 1) for i in range(n_questions)]


def _rwl(profile, retry_policy, seed=1, fault_seed=7, repetition=1):
    truth = GroundTruth.random(64, np.random.default_rng(0))
    platform = FaultyPlatform(
        SimulatedPlatform(truth, np.random.default_rng(seed)),
        profile,
        np.random.default_rng(fault_seed),
    )
    return ReliableWorkerLayer(
        platform,
        np.random.default_rng(seed),
        repetition=repetition,
        retry_policy=retry_policy,
    )


class TestRetryRecoversLostAnswers:
    def test_lossy_round_resolves_every_question(self):
        rwl = _rwl(
            fault_profile_by_name("lossy"), RetryPolicy(max_attempts=10)
        )
        result = rwl.ask(_chain(40))
        assert len(result.answers) == 40
        assert result.unanswered.shape == (0, 2)
        assert result.attempts > 1
        # Only the unanswered questions were re-posted.
        assert 40 < result.questions_posted < 80

    def test_retries_add_latency(self):
        baseline = _rwl(FaultProfile.none(), None)
        clean = baseline.ask(_chain(40))
        retried = _rwl(
            fault_profile_by_name("lossy"),
            RetryPolicy(max_attempts=10, base_backoff=120.0, jitter=0.0),
        ).ask(_chain(40))
        assert retried.attempts > 1
        assert retried.latency > clean.latency

    def test_outages_are_absorbed_by_the_policy(self):
        profile = FaultProfile(outage_prob=0.5, outage_detection_time=300.0)
        rwl = _rwl(profile, RetryPolicy(max_attempts=20, jitter=0.0), fault_seed=3)
        result = rwl.ask(_chain(20))
        assert len(result.answers) == 20
        assert result.attempts > 1
        # Every absorbed outage contributed its detection time.
        platform = rwl.platform
        assert platform.fault_stats.outages >= 1
        assert result.latency >= 300.0 * platform.fault_stats.outages

    def test_retry_emits_batch_retried_events(self):
        tracer = obs.RecordingTracer()
        rwl = _rwl(fault_profile_by_name("lossy"), RetryPolicy(max_attempts=10))
        with obs.use_tracer(tracer):
            result = rwl.ask(_chain(40))
        retries = [
            r.event for r in tracer.records if r.event.kind == "BatchRetried"
        ]
        assert len(retries) == result.attempts - 1
        assert retries[0].attempt == 2
        assert retries[0].reason == "unanswered"
        assert retries[0].backoff_seconds > 0


class TestGracefulDegradation:
    def test_attempt_budget_exhaustion_reports_unanswered(self):
        profile = FaultProfile(drop_prob=1.0)  # nothing ever arrives
        rwl = _rwl(profile, RetryPolicy(max_attempts=3, jitter=0.0))
        result = rwl.ask(_chain(15))
        assert len(result.answers) == 0
        assert len(result.unanswered) == 15
        assert result.attempts == 3

    def test_deadline_stops_retrying(self):
        profile = FaultProfile(drop_prob=1.0)
        # The first batch takes a few hundred simulated seconds, so a tight
        # deadline forbids even one retry.
        rwl = _rwl(
            profile,
            RetryPolicy(max_attempts=50, deadline=1.0, jitter=0.0),
        )
        result = rwl.ask(_chain(15))
        assert result.attempts == 1
        assert len(result.unanswered) == 15

    def test_partial_recovery_returns_conflict_free_subset(self):
        profile = FaultProfile(drop_prob=0.6)
        rwl = _rwl(profile, RetryPolicy(max_attempts=2, jitter=0.0))
        result = rwl.ask(_chain(40))
        answered = set(map(tuple, result.questions.tolist()))
        assert answered.isdisjoint(map(tuple, result.unanswered.tolist()))
        assert len(answered) + len(result.unanswered) == 40
        assert len(result.unanswered) > 0

    def test_unanswered_metric_recorded(self):
        registry = obs.get_registry()
        registry.reset()
        rwl = _rwl(FaultProfile(drop_prob=1.0), RetryPolicy(max_attempts=2))
        rwl.ask(_chain(10))
        assert registry.counter("rwl.unanswered").value == 10
        assert registry.counter("rwl.retries").value == 1


class TestWithoutRetryPolicy:
    def test_outage_propagates(self):
        profile = FaultProfile(outage_prob=1.0)
        rwl = _rwl(profile, None)
        with pytest.raises(PlatformOutageError):
            rwl.ask(_chain(10))

    def test_lost_answers_degrade_immediately(self):
        profile = FaultProfile(drop_prob=0.5)
        rwl = _rwl(profile, None)
        result = rwl.ask(_chain(40))
        assert result.attempts == 1
        assert len(result.answers) + len(result.unanswered) == 40
        assert len(result.unanswered) > 0

    def test_fault_free_result_reports_no_retries(self, rng):
        truth = GroundTruth.random(30, np.random.default_rng(0))
        platform = SimulatedPlatform(truth, rng)
        result = ReliableWorkerLayer(platform, rng).ask(_chain(20))
        assert result.attempts == 1
        assert result.unanswered.shape == (0, 2)
        assert len(result.answers) == 20


class TestRepetitionInteraction:
    def test_question_counts_multiply_by_repetition(self):
        rwl = _rwl(
            fault_profile_by_name("lossy"),
            RetryPolicy(max_attempts=10),
            repetition=3,
        )
        result = rwl.ask(_chain(10))
        assert len(result.answers) == 10
        assert result.questions_posted >= 30
        assert result.questions_posted % 3 == 0


class TestPerQueryBudget:
    """ask(budget=...) clips retry backoff to the remaining query budget."""

    POLICY = RetryPolicy(max_attempts=10, base_backoff=500.0, jitter=0.0)

    def _lossy(self):
        return _rwl(fault_profile_by_name("lossy"), self.POLICY)

    def test_no_budget_is_bit_identical_to_omitting_it(self):
        unbudgeted = self._lossy().ask(_chain(40))
        explicit_none = self._lossy().ask(_chain(40), budget=None)
        assert explicit_none == unbudgeted

    def test_loose_budget_changes_nothing(self):
        unbudgeted = self._lossy().ask(_chain(40))
        loose = self._lossy().ask(_chain(40), budget=1e9)
        assert loose == unbudgeted

    def test_overshooting_backoff_is_truncated_not_skipped(self):
        # Regression for the boundary tick: a retry whose full backoff
        # would overshoot the budget must still happen, with its sleep
        # truncated to the exact remainder — not be dropped wholesale.
        two_attempts = RetryPolicy(
            max_attempts=2, base_backoff=500.0, jitter=0.0
        )
        unbudgeted = _rwl(
            fault_profile_by_name("lossy"), two_attempts
        ).ask(_chain(40))
        assert unbudgeted.attempts == 2
        single = _rwl(
            fault_profile_by_name("lossy"), RetryPolicy(max_attempts=1)
        ).ask(_chain(40))
        # Budget runs out 200 s into the 500 s backoff before attempt 2.
        budget = single.latency + 200.0
        clipped = _rwl(
            fault_profile_by_name("lossy"), two_attempts
        ).ask(_chain(40), budget=budget)
        assert clipped.attempts == 2
        # The second attempt fired at exactly the budget boundary, so the
        # run is 300 s (the truncated portion of the sleep) shorter than
        # the unbudgeted one while posting the same copies.
        assert clipped.latency == pytest.approx(unbudgeted.latency - 300.0)
        assert clipped.questions_posted == unbudgeted.questions_posted
        assert len(clipped.answers) == len(unbudgeted.answers)

    def test_exhausted_budget_stops_retrying(self):
        single = _rwl(
            fault_profile_by_name("lossy"), RetryPolicy(max_attempts=1)
        ).ask(_chain(40))
        # Budget spent before the first backoff: degrade immediately.
        clipped = self._lossy().ask(_chain(40), budget=single.latency)
        assert clipped.attempts == 1
        assert clipped.latency == single.latency
        assert len(clipped.unanswered) > 0

    def test_budget_never_blocks_the_first_attempt(self):
        # The budget gates backoff sleeps, not posting: even a tiny
        # budget still buys one attempt.
        clipped = self._lossy().ask(_chain(40), budget=1.0)
        assert clipped.attempts == 1
        assert len(clipped.answers) > 0
