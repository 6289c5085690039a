"""Tests for the fault-injection layer (repro.crowd.faults).

The two load-bearing properties (acceptance criteria of the robustness
layer):

* a zero :class:`FaultProfile` leaves the wrapped platform byte-identical
  to the bare one — answers, completion time and stats;
* any seeded profile replays identically run over run.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import obs
from repro.crowd.faults import (
    FaultProfile,
    FaultyPlatform,
    RetryPolicy,
    available_fault_profiles,
    fault_profile_by_name,
)
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform
from repro.errors import InvalidParameterError, PlatformOutageError


def _chain(n_questions, n_elements=64):
    """A batch of distinct adjacent-pair questions."""
    assert n_questions < n_elements
    return [(i, i + 1) for i in range(n_questions)]


def _platform(seed=1, n_elements=64):
    truth = GroundTruth.random(n_elements, np.random.default_rng(0))
    return SimulatedPlatform(truth, np.random.default_rng(seed))


def _wrapped(profile, seed=1, fault_seed=99, n_elements=64):
    return FaultyPlatform(
        _platform(seed, n_elements), profile, np.random.default_rng(fault_seed)
    )


class TestFaultProfile:
    def test_default_profile_is_zero(self):
        assert FaultProfile().is_zero
        assert FaultProfile.none().is_zero

    @pytest.mark.parametrize(
        "field, value",
        [
            ("abandon_prob", -0.1),
            ("drop_prob", 1.5),
            ("straggler_prob", 2.0),
            ("duplicate_prob", -1.0),
            ("outage_prob", 1.01),
            ("straggler_multiplier", 1.0),
            ("duplicate_delay", -1.0),
            ("outage_detection_time", -5.0),
        ],
    )
    def test_rejects_out_of_domain_parameters(self, field, value):
        with pytest.raises(InvalidParameterError):
            FaultProfile(**{field: value})

    def test_named_profiles_resolve(self):
        for name in available_fault_profiles():
            profile = fault_profile_by_name(name)
            assert profile.is_zero == (name == "none")

    def test_unknown_profile_name_lists_options(self):
        with pytest.raises(InvalidParameterError, match="mild"):
            fault_profile_by_name("nope")


class TestZeroProfileIdentity:
    """Acceptance criterion: zero faults == no fault layer, bit for bit."""

    def test_batches_and_stats_identical(self):
        bare = _platform()
        wrapped = _wrapped(FaultProfile.none())
        for size in (5, 1, 40, 17):
            expected = bare.post_batch(_chain(size))
            actual = wrapped.post_batch(_chain(size))
            assert actual == expected
        assert wrapped.stats == bare.stats
        assert wrapped.fault_stats.total_faults == 0

    def test_zero_profile_never_draws_fault_randomness(self):
        fault_rng = np.random.default_rng(7)
        before = fault_rng.bit_generator.state
        platform = FaultyPlatform(_platform(), FaultProfile.none(), fault_rng)
        platform.post_batch(_chain(20))
        assert fault_rng.bit_generator.state == before


class FaultFreeEquivalenceMachine(RuleBasedStateMachine):
    """Stateful check: a zero-profile wrapper shadows the bare platform.

    Hypothesis drives an arbitrary sequence of batch posts; after every
    post the wrapped platform must have produced the exact same answers,
    completion time and cumulative stats as the bare one.
    """

    @initialize(seed=st.integers(0, 2**16))
    def start(self, seed):
        self.bare = _platform(seed=seed)
        self.wrapped = _wrapped(FaultProfile.none(), seed=seed)

    @rule(size=st.integers(0, 50))
    def post(self, size):
        batch = _chain(size)
        assert self.wrapped.post_batch(batch) == self.bare.post_batch(batch)

    @invariant()
    def stats_match(self):
        assert self.wrapped.stats == self.bare.stats
        assert self.wrapped.fault_stats.total_faults == 0


TestFaultFreeEquivalence = FaultFreeEquivalenceMachine.TestCase
TestFaultFreeEquivalence.settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestFaultFreeEquivalence.pytestmark = [pytest.mark.slow]


class TestSeededReplay:
    @staticmethod
    def _run(profile, fault_seed):
        platform = _wrapped(profile, fault_seed=fault_seed)
        outcomes = []
        for size in (30, 12, 45, 3):
            try:
                outcomes.append(platform.post_batch(_chain(size)))
            except PlatformOutageError as outage:
                outcomes.append(("outage", outage.wasted_seconds))
        return outcomes, platform.fault_stats.as_dict()

    @pytest.mark.parametrize("name", ["mild", "lossy", "severe", "outages"])
    def test_same_seed_replays_identically(self, name):
        profile = fault_profile_by_name(name)
        assert self._run(profile, 5) == self._run(profile, 5)

    def test_different_seeds_diverge(self):
        profile = fault_profile_by_name("severe")
        assert self._run(profile, 5) != self._run(profile, 6)

    @pytest.mark.slow
    @settings(max_examples=30, deadline=None)
    @given(
        fault_seed=st.integers(0, 2**16),
        abandon=st.floats(0.0, 0.5),
        drop=st.floats(0.0, 0.5),
        straggle=st.floats(0.0, 0.5),
        duplicate=st.floats(0.0, 0.5),
        outage=st.floats(0.0, 0.5),
    )
    def test_replay_holds_for_arbitrary_profiles(
        self, fault_seed, abandon, drop, straggle, duplicate, outage
    ):
        profile = FaultProfile(
            abandon_prob=abandon,
            drop_prob=drop,
            straggler_prob=straggle,
            duplicate_prob=duplicate,
            outage_prob=outage,
        )
        assert self._run(profile, fault_seed) == self._run(profile, fault_seed)


class TestIndividualFaults:
    def test_drops_remove_answers(self):
        platform = _wrapped(FaultProfile(drop_prob=0.5))
        result = platform.post_batch(_chain(40))
        assert 0 < result.n_answers < 40
        assert platform.fault_stats.dropped == 40 - result.n_answers

    def test_abandonment_removes_answers(self):
        platform = _wrapped(FaultProfile(abandon_prob=0.5))
        result = platform.post_batch(_chain(40))
        assert result.n_answers < 40
        assert platform.fault_stats.abandoned == 40 - result.n_answers

    def test_stragglers_delay_completion(self):
        bare = _platform()
        expected = bare.post_batch(_chain(40))
        platform = _wrapped(
            FaultProfile(straggler_prob=1.0, straggler_multiplier=4.0)
        )
        result = platform.post_batch(_chain(40))
        assert result.n_answers == 40
        assert result.completion_time == pytest.approx(
            4.0 * expected.completion_time
        )
        assert platform.fault_stats.stragglers == 40

    def test_duplicates_add_answers_for_the_same_question(self):
        platform = _wrapped(FaultProfile(duplicate_prob=1.0))
        result = platform.post_batch(_chain(10))
        assert result.n_answers == 20
        np.testing.assert_array_equal(
            result.questions[10:], result.questions[:10]
        )
        np.testing.assert_array_equal(result.winners[10:], result.winners[:10])
        np.testing.assert_array_equal(
            result.worker_ids[10:], result.worker_ids[:10]
        )
        assert (result.submit_times[10:] >= result.submit_times[:10]).all()

    @pytest.mark.parametrize("name", ["none", "lossy", "severe"])
    @pytest.mark.parametrize("wrappers", [1, 2])
    def test_rows_name_the_posted_row_of_each_answer(self, name, wrappers):
        """Every answer's ``rows`` entry is the posted row it answers,
        through survivors and duplicates and through stacked wrappers."""
        platform = _platform()
        for seed in range(wrappers):
            platform = FaultyPlatform(
                platform, fault_profile_by_name(name), np.random.default_rng(seed)
            )
        posted = np.array(_chain(60), dtype=np.int64)  # distinct rows
        for _ in range(5):
            try:
                result = platform.post_batch(posted)
            except PlatformOutageError:
                continue
            assert result.rows.dtype == np.int64
            np.testing.assert_array_equal(result.questions, posted[result.rows])

    def test_outage_raises_with_detection_time(self):
        platform = _wrapped(
            FaultProfile(outage_prob=1.0, outage_detection_time=123.0)
        )
        with pytest.raises(PlatformOutageError) as excinfo:
            platform.post_batch(_chain(5))
        assert excinfo.value.wasted_seconds == 123.0
        assert platform.fault_stats.outages == 1
        # The inner platform never saw the batch.
        assert platform.stats.batches_posted == 0

    def test_empty_batch_is_passed_through(self):
        platform = _wrapped(fault_profile_by_name("severe"))
        result = platform.post_batch([])
        assert result.n_answers == 0
        assert result.completion_time == 0.0

    def test_faults_emit_trace_events(self):
        tracer = obs.RecordingTracer()
        platform = _wrapped(FaultProfile(drop_prob=0.5, duplicate_prob=0.5))
        with obs.use_tracer(tracer):
            platform.post_batch(_chain(40))
        kinds = {
            record.event.fault
            for record in tracer.records
            if record.event.kind == "FaultInjected"
        }
        assert "drop" in kinds
        assert "duplicate" in kinds

    def test_fault_metrics_recorded(self):
        registry = obs.get_registry()
        registry.reset()
        platform = _wrapped(FaultProfile(drop_prob=0.5))
        result = platform.post_batch(_chain(40))
        dropped = 40 - result.n_answers
        assert registry.counter("faults.drop").value == dropped


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"deadline": -1.0},
            {"base_backoff": -1.0},
            {"backoff_multiplier": 0.5},
            {"base_backoff": 100.0, "max_backoff": 10.0},
            {"jitter": 1.5},
        ],
    )
    def test_rejects_out_of_domain_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_exponentially_without_jitter(self, rng):
        policy = RetryPolicy(
            base_backoff=10.0,
            backoff_multiplier=2.0,
            max_backoff=35.0,
            jitter=0.0,
        )
        waits = [policy.backoff_seconds(i, rng) for i in (1, 2, 3, 4)]
        assert waits == [10.0, 20.0, 35.0, 35.0]

    def test_jitter_stays_within_the_documented_band(self, rng):
        policy = RetryPolicy(base_backoff=100.0, jitter=0.2, max_backoff=100.0)
        for _ in range(50):
            wait = policy.backoff_seconds(1, rng)
            assert 80.0 <= wait <= 120.0

    def test_backoff_rejects_zero_retry_index(self, rng):
        with pytest.raises(InvalidParameterError):
            RetryPolicy().backoff_seconds(0, rng)

    def test_profile_and_policy_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FaultProfile().drop_prob = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            RetryPolicy().max_attempts = 5


class TestBackoffCapIsHard:
    """Regression: jitter used to be applied *after* the min() with
    max_backoff, so a positive jitter draw could exceed the documented
    hard ceiling.  The cap must now clamp the jittered value."""

    def test_jitter_never_exceeds_max_backoff(self, rng):
        policy = RetryPolicy(
            base_backoff=100.0,
            backoff_multiplier=10.0,
            max_backoff=100.0,
            jitter=0.5,
        )
        # retry_index 3 puts the raw backoff far above the cap, so any
        # upward jitter that survives the clamp would be visible.
        waits = [policy.backoff_seconds(3, rng) for _ in range(200)]
        assert all(wait <= 100.0 for wait in waits)

    def test_jitter_still_varies_below_the_cap(self, rng):
        policy = RetryPolicy(
            base_backoff=10.0, max_backoff=1000.0, jitter=0.5
        )
        waits = {policy.backoff_seconds(1, rng) for _ in range(20)}
        assert len(waits) > 1
        assert all(5.0 <= wait <= 15.0 for wait in waits)

    def test_downward_jitter_survives_at_the_cap(self, rng):
        # Clamping after jittering keeps the downward half of the band.
        policy = RetryPolicy(
            base_backoff=100.0, max_backoff=100.0, jitter=0.5
        )
        waits = [policy.backoff_seconds(1, rng) for _ in range(200)]
        assert min(waits) < 100.0


class TestOutageWindow:
    """The deterministic maintenance window behind the sustained profile."""

    @pytest.mark.parametrize(
        "window", [(5.0,), (3.0, 2.0), (-1.0, 10.0), (4.0, 4.0)]
    )
    def test_rejects_malformed_windows(self, window):
        with pytest.raises(InvalidParameterError):
            FaultProfile(outage_window=window)

    def test_window_makes_profile_nonzero(self):
        assert not FaultProfile(outage_window=(0.0, 10.0)).is_zero

    def test_outage_raised_only_inside_the_window(self):
        profile = FaultProfile(
            outage_window=(100.0, 200.0), outage_detection_time=30.0
        )
        platform = _wrapped(profile)
        platform.set_clock(50.0)
        assert platform.post_batch(_chain(5)).n_answers == 5
        platform.set_clock(150.0)
        with pytest.raises(PlatformOutageError) as excinfo:
            platform.post_batch(_chain(5))
        assert excinfo.value.wasted_seconds == 30.0
        assert platform.fault_stats.outages == 1
        platform.set_clock(200.0)  # window end is exclusive
        assert platform.post_batch(_chain(5)).n_answers == 5

    def test_window_outage_consumes_no_fault_randomness(self):
        """A deterministic outage must not desynchronise the seeded fault
        stream: the draws after the window match a run without one."""
        windowed = _wrapped(
            FaultProfile(drop_prob=0.3, outage_window=(0.0, 10.0))
        )
        plain = _wrapped(FaultProfile(drop_prob=0.3))
        windowed.set_clock(5.0)
        with pytest.raises(PlatformOutageError):
            windowed.post_batch(_chain(20))
        windowed.set_clock(20.0)
        expected = plain.post_batch(_chain(20))
        actual = windowed.post_batch(_chain(20))
        assert actual.n_answers == expected.n_answers

    def test_sustained_profile_has_a_window(self):
        profile = fault_profile_by_name("sustained")
        assert profile.outage_window is not None
        start, end = profile.outage_window
        assert start < end
