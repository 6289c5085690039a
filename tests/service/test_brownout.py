"""Tests for the overload brownout controller (repro.service.deadline).

Covers the pure :class:`BrownoutController` state machine (one level per
tick, hysteresis, snapshot round-trip) and its scheduler integration:
shedding low-priority admissions, widening repetition reduction and
suspending hedging — restored in reverse order as the queue drains.
"""

from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import LinearLatency
from repro.errors import InvalidParameterError
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.service import (
    DEADLINE_SHED,
    BrownoutConfig,
    BrownoutController,
    MaxScheduler,
    QuerySpec,
    QueryState,
    ServiceConfig,
)
from repro.service.deadline import backlog_queue_wait_p95, queue_wait_p95

LATENCY = LinearLatency(239, 0.06)


def spec(query_id, n=10, budget=50, **kwargs):
    return QuerySpec(query_id=query_id, n_elements=n, budget=budget, **kwargs)


class TestBrownoutController:
    def test_escalates_one_level_per_observation(self):
        controller = BrownoutController(BrownoutConfig(queue_wait_threshold=100.0))
        assert controller.observe(500.0) == (0, 1)
        assert controller.observe(500.0) == (1, 2)
        assert controller.observe(500.0) == (2, 3)
        # Saturated at max_level: no further transition.
        assert controller.observe(500.0) is None
        assert controller.level == 3
        assert controller.transitions == 3

    def test_restores_one_level_per_observation_in_reverse(self):
        controller = BrownoutController(BrownoutConfig(queue_wait_threshold=100.0))
        for _ in range(3):
            controller.observe(500.0)
        assert controller.hedging_disabled
        assert controller.observe(0.0) == (3, 2)
        # Hedging comes back first, repetition next, admissions last.
        assert not controller.hedging_disabled
        assert controller.reduce_repetition
        assert controller.observe(0.0) == (2, 1)
        assert not controller.reduce_repetition
        assert controller.shed_low_priority
        assert controller.observe(0.0) == (1, 0)
        assert not controller.shed_low_priority
        assert controller.transitions == 6

    def test_hysteresis_band_holds_the_level(self):
        config = BrownoutConfig(queue_wait_threshold=100.0, clear_fraction=0.75)
        controller = BrownoutController(config)
        controller.observe(100.0)
        assert controller.level == 1
        # Between clear (75) and escalate (100): no movement either way.
        assert controller.observe(80.0) is None
        assert controller.level == 1
        assert controller.observe(74.9) == (1, 0)

    def test_max_level_caps_the_effects(self):
        config = BrownoutConfig(queue_wait_threshold=100.0, max_level=1)
        controller = BrownoutController(config)
        controller.observe(500.0)
        assert controller.observe(500.0) is None
        assert controller.shed_low_priority
        assert not controller.reduce_repetition
        assert not controller.hedging_disabled

    def test_state_dict_round_trip(self):
        config = BrownoutConfig(queue_wait_threshold=100.0)
        controller = BrownoutController(config)
        controller.observe(500.0)
        controller.observe(500.0)
        clone = BrownoutController(config)
        clone.load_state_dict(controller.state_dict())
        assert clone.level == controller.level
        assert clone.transitions == controller.transitions

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            BrownoutConfig(queue_wait_threshold=0.0)
        with pytest.raises(InvalidParameterError):
            BrownoutConfig(clear_fraction=0.0)
        with pytest.raises(InvalidParameterError):
            BrownoutConfig(max_level=4)

    def test_queue_wait_p95_empty_and_nearest_rank(self):
        assert queue_wait_p95([]) == 0.0
        waits = [float(i) for i in range(1, 101)]
        assert queue_wait_p95(waits) == 95.0

    TIMES = st.lists(
        st.one_of(st.integers(0, 30).map(float), st.floats(0.0, 1e6)),
        max_size=200,
    )

    @given(waiting=TIMES, backlog=TIMES, now=st.floats(0.0, 1e6))
    @settings(max_examples=300, deadline=None)
    def test_backlog_p95_equals_the_full_list(self, waiting, backlog, now):
        backlog.sort()
        reads = []

        def arrival(j):
            reads.append(j)
            return backlog[j]

        waits = [max(0.0, now - a) for a in waiting]
        waits += [now - a for a in takewhile(lambda a: a <= now, backlog)]
        p95 = backlog_queue_wait_p95(now, waiting, len(backlog), arrival)
        assert p95 == queue_wait_p95(waits)
        # Never the whole backlog: two binary searches and two reads.
        bound = len(backlog).bit_length() + len(waiting).bit_length() + 2
        assert len(reads) <= bound


class TestBrownoutScheduling:
    def _congested(self, brownout, n=14, deadline=None):
        # One slot + a crawling queue: waits blow past any threshold.
        config = ServiceConfig(
            policy="priority",
            max_active_queries=1,
            max_queue_depth=4,
            brownout=brownout,
            default_deadline=deadline,
        )
        specs = [
            spec(i, n=16, budget=80, priority=i % 2)
            for i in range(n)
        ]
        return MaxScheduler(specs, LATENCY, seed=0, config=config)

    def test_brownout_sheds_low_priority_admissions(self):
        scheduler = self._congested(BrownoutConfig(queue_wait_threshold=300.0))
        report = scheduler.run()
        shed = [r for r in report.results if r.state is QueryState.SHED]
        assert shed
        assert all(r.spec.priority <= 0 for r in shed)
        assert scheduler.brownout.transitions > 0

    def test_brownout_shed_records_deadline_outcome(self):
        scheduler = self._congested(
            BrownoutConfig(queue_wait_threshold=300.0), deadline=1e6
        )
        report = scheduler.run()
        shed = [r for r in report.results if r.state is QueryState.SHED]
        assert shed
        assert all(r.deadline_outcome == DEADLINE_SHED for r in shed)

    def test_high_priority_admissions_survive_brownout(self):
        scheduler = self._congested(BrownoutConfig(queue_wait_threshold=300.0))
        report = scheduler.run()
        high = [r for r in report.results if r.spec.priority > 0]
        assert all(r.state is not QueryState.SHED for r in high)

    def test_brownout_reduces_repetition(self):
        config = ServiceConfig(
            max_active_queries=1,
            max_queue_depth=8,
            repetition=3,
            brownout=BrownoutConfig(queue_wait_threshold=200.0),
        )
        # A burst to trip the brownout, then lone stragglers whose empty
        # queue drives the restoration while the scheduler still steps.
        specs = [spec(i, n=16, budget=80) for i in range(10)] + [
            spec(10 + i, n=8, budget=40, arrival_time=50000.0 + 5000.0 * i)
            for i in range(4)
        ]
        scheduler = MaxScheduler(specs, LATENCY, seed=0, config=config)
        while scheduler.step():
            if scheduler.brownout.level >= 2:
                break
        assert scheduler.router.backends[0].rwl.repetition == 1
        # Drain; once the queue empties the controller restores the
        # configured repetition on the way back down.
        while scheduler.step():
            pass
        assert scheduler.brownout.level < 2
        assert scheduler.router.backends[0].rwl.repetition == 3

    def test_transitions_emit_events_and_journal_samples(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            scheduler = self._congested(
                BrownoutConfig(queue_wait_threshold=300.0)
            )
            scheduler.run()
        changes = [
            r.event for r in tracer.records
            if r.event.kind == "BrownoutStateChanged"
        ]
        assert changes
        assert changes[0].previous == 0
        assert changes[0].level == 1
        assert all(c.queue_wait_p95 >= 0.0 for c in changes)
        # The tick stream carries the live level for the dashboard.
        assert any(s.brownout_level > 0 for s in scheduler.tick_history)

    def test_live_p95_equals_the_full_due_head(self):
        # Staggered arrivals with ties, a queue and a growing due head.
        config = ServiceConfig(
            max_active_queries=2,
            max_queue_depth=6,
            brownout=BrownoutConfig(queue_wait_threshold=300.0),
        )
        specs = [
            spec(i, n=12, budget=60, priority=i % 3,
                 arrival_time=40.0 * (i // 2))
            for i in range(40)
        ]
        scheduler = MaxScheduler(specs, LATENCY, seed=0, config=config)
        while True:
            now = scheduler._now
            waits = [
                max(0.0, now - q.spec.arrival_time) for q in scheduler._waiting
            ] + [
                now - s.arrival_time
                for s in scheduler._backlog
                if s.arrival_time <= now
            ]
            assert scheduler._queue_wait_p95() == queue_wait_p95(waits)
            if not scheduler.step():
                break
        assert scheduler.brownout.transitions > 0

    def test_brownout_off_keeps_results_identical(self):
        plain = self._congested(None).run()
        # A threshold no queue wait can reach: controller armed but inert.
        inert = self._congested(
            BrownoutConfig(queue_wait_threshold=1e12)
        ).run()
        assert plain == inert
