"""Circuit breaker: state machine and scheduler integration."""

import pytest

from repro.core.latency import mturk_car_latency
from repro.crowd.breaker import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerConfig,
    RoundDecision,
)
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.errors import InvalidParameterError
from repro.service import MaxScheduler, generate_workload, workload_by_name


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown_seconds": 0.0},
            {"cooldown_seconds": -5.0},
            {"probe_successes": 0},
        ],
    )
    def test_rejects_out_of_domain_parameters(self, kwargs):
        with pytest.raises(InvalidParameterError):
            CircuitBreakerConfig(**kwargs)


class TestStateMachine:
    def test_starts_closed_and_posts(self):
        breaker = CircuitBreaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow_post()
        assert breaker.before_round(0.0) is RoundDecision.POST

    def test_trips_after_consecutive_outages(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=3))
        breaker.record_outage()
        breaker.record_outage()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_outage()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 1

    def test_success_resets_the_outage_streak(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=2))
        breaker.record_outage()
        breaker.record_success()
        breaker.record_outage()
        assert breaker.state is BreakerState.CLOSED

    def test_open_blocks_posts_and_counts_them(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=1))
        breaker.record_outage()
        assert not breaker.allow_post()
        assert not breaker.allow_post()
        assert breaker.blocked_posts == 2

    def test_open_defers_until_cooldown_then_probes(self):
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=1, cooldown_seconds=100.0)
        )
        breaker.record_outage()
        breaker.note_time(50.0)
        assert breaker.before_round(60.0) is RoundDecision.DEFER
        assert breaker.defer_target(60.0) == 150.0
        assert breaker.before_round(150.0) is RoundDecision.PROBE
        assert breaker.state is BreakerState.HALF_OPEN

    def test_open_without_timestamp_stamps_itself_on_first_round(self):
        # The RWL trips the breaker clock-lessly; if the scheduler never
        # called note_time, the first before_round supplies the timestamp.
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=1, cooldown_seconds=100.0)
        )
        breaker.record_outage()
        assert breaker.opened_at is None
        assert breaker.before_round(40.0) is RoundDecision.DEFER
        assert breaker.opened_at == 40.0

    def test_half_open_success_closes(self):
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=1, cooldown_seconds=10.0)
        )
        breaker.record_outage()
        breaker.note_time(0.0)
        assert breaker.before_round(10.0) is RoundDecision.PROBE
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.closes == 1

    def test_half_open_outage_reopens(self):
        breaker = CircuitBreaker(
            CircuitBreakerConfig(failure_threshold=1, cooldown_seconds=10.0)
        )
        breaker.record_outage()
        breaker.note_time(0.0)
        breaker.before_round(10.0)
        breaker.record_outage()
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2
        # The re-open clears the stamp; the next round re-stamps it.
        assert breaker.opened_at is None

    def test_multiple_probe_successes_required_when_configured(self):
        breaker = CircuitBreaker(
            CircuitBreakerConfig(
                failure_threshold=1, cooldown_seconds=10.0, probe_successes=2
            )
        )
        breaker.record_outage()
        breaker.note_time(0.0)
        breaker.before_round(10.0)
        breaker.record_success()
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED

    def test_state_dict_round_trip(self):
        breaker = CircuitBreaker(CircuitBreakerConfig(failure_threshold=2))
        breaker.record_outage()
        breaker.record_outage()
        breaker.note_time(123.0)
        breaker.allow_post()
        clone = CircuitBreaker(breaker.config)
        clone.load_state_dict(breaker.state_dict())
        assert clone.state_dict() == breaker.state_dict()
        assert clone.state is BreakerState.OPEN
        assert clone.opened_at == 123.0


def _sustained_scheduler(breaker_config=None, seed=11):
    specs = generate_workload(workload_by_name("smoke"), seed=seed)
    return MaxScheduler(
        specs,
        mturk_car_latency(),
        seed=seed,
        fault_profile=fault_profile_by_name("sustained"),
        retry_policy=RetryPolicy(),
        breaker_config=breaker_config,
    )


class TestSchedulerIntegration:
    def test_breaker_stops_posting_while_platform_is_down(self):
        """The acceptance property: a sustained outage trips the circuit,
        ZERO posts hit the platform while it is open, and the workload
        still completes once the maintenance window ends."""
        without = _sustained_scheduler().run()
        scheduler = _sustained_scheduler(
            CircuitBreakerConfig(failure_threshold=2, cooldown_seconds=1800.0)
        )
        (backend,) = scheduler.router.backends
        platform, breaker = backend.platform, backend.breaker
        original_post = platform.post_batch
        posts_while_open = 0

        def counting_post(questions):
            nonlocal posts_while_open
            if breaker.state is BreakerState.OPEN:
                posts_while_open += 1
            return original_post(questions)

        platform.post_batch = counting_post
        report = scheduler.run()

        assert posts_while_open == 0
        assert breaker.opens >= 1
        assert breaker.closes >= 1
        assert breaker.state is BreakerState.CLOSED
        # Every query completes once the window lifts, and the breaker
        # wastes far fewer posts on the dead platform than raw retries do.
        window_end = platform.profile.outage_window[1]
        assert all(r.state.value == "completed" for r in report.results)
        assert report.makespan > window_end
        assert all(r.state.value == "completed" for r in without.results)

    def test_breaker_burns_fewer_outages_than_raw_retries(self):
        bare = _sustained_scheduler()
        bare_report = bare.run()
        guarded = _sustained_scheduler(
            CircuitBreakerConfig(failure_threshold=2, cooldown_seconds=1800.0)
        )
        guarded_report = guarded.run()
        assert (
            guarded.router.backends[0].faulty.fault_stats.outages
            < bare.router.backends[0].faulty.fault_stats.outages
        )
        assert all(
            r.state.value == "completed" for r in guarded_report.results
        )
        assert all(r.state.value == "completed" for r in bare_report.results)

    def test_deferred_rounds_advance_the_clock_past_the_cooldown(self):
        scheduler = _sustained_scheduler(
            CircuitBreakerConfig(failure_threshold=2, cooldown_seconds=1800.0)
        )
        breaker = scheduler.router.backends[0].breaker
        opened_ticks = []
        while scheduler.step():
            if breaker.state is BreakerState.OPEN:
                opened_ticks.append((scheduler.ticks, scheduler.now))
        assert opened_ticks, "breaker never opened under the sustained profile"

    def test_zero_retry_attempts_while_open(self):
        """While the circuit is open the RWL never draws a retry backoff:
        the platform sees no batches at all between trip and probe."""
        config = CircuitBreakerConfig(
            failure_threshold=2, cooldown_seconds=1800.0
        )
        scheduler = _sustained_scheduler(config)
        (backend,) = scheduler.router.backends
        platform, breaker = backend.platform, backend.breaker
        deferred_steps = 0
        while True:
            # A step starting with the circuit open and the cooldown not
            # yet elapsed is a deferral: the platform must stay untouched.
            will_defer = breaker.state is BreakerState.OPEN and (
                breaker.opened_at is None
                or scheduler.now
                < breaker.opened_at + config.cooldown_seconds
            )
            before = (
                platform.fault_stats.outages,
                platform.inner.stats.batches_posted,
            )
            if not scheduler.step():
                break
            after = (
                platform.fault_stats.outages,
                platform.inner.stats.batches_posted,
            )
            if will_defer:
                deferred_steps += 1
                assert after == before
        assert deferred_steps >= 1, "circuit never deferred a round"
