"""Unit tests for hedged posting on the capacity-aware router.

Scheduler-level hedging properties (answer invariance, ``hedge_after ==
inf`` bit-identity) live in ``tests/service/test_hedging.py``; this
module drives :meth:`CapacityAwareRouter.post_round` directly.
"""

import math

import numpy as np
import pytest

from repro.core.latency import LinearLatency
from repro.crowd.faults import FaultProfile
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.multibackend import (
    BackendSpec,
    CapacityAwareRouter,
    HedgeConfig,
    build_backends,
)
from repro.errors import InvalidParameterError
from repro.obs.tracer import RecordingTracer, use_tracer
from tests.crowd.router_reference import as_tick

FAST = LinearLatency(delta=100.0, alpha=0.1)
SLOW = LinearLatency(delta=400.0, alpha=0.1)


def _truth(n=300, seed=0):
    return GroundTruth.random(n, np.random.default_rng((seed, 0)))


def _router(specs, policy="least-loaded", hedge=None, seed=0):
    fleet = build_backends(specs, _truth(seed=seed), seed)
    return CapacityAwareRouter(fleet, policy, hedge=hedge)


def _questions(n, start=0):
    return [(start + i, start + i + 100) for i in range(n)]


def _pair(hedge, slow_faults=None):
    return _router(
        [
            BackendSpec(
                name="slowpoke",
                latency=SLOW,
                capacity=50,
                fault_profile=slow_faults,
            ),
            BackendSpec(name="rocket", latency=FAST, capacity=50),
        ],
        hedge=hedge,
    )


class TestHedgeConfig:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            HedgeConfig(hedge_after=0.0)
        with pytest.raises(InvalidParameterError):
            HedgeConfig(percentile=0.0)
        with pytest.raises(InvalidParameterError):
            HedgeConfig(factor=0.0)
        with pytest.raises(InvalidParameterError):
            HedgeConfig(min_samples=0)
        with pytest.raises(InvalidParameterError):
            HedgeConfig(window=4, min_samples=8)

    def test_explicit_threshold_arms_immediately(self):
        router = _pair(HedgeConfig(hedge_after=300.0))
        assert router.hedge_after_threshold() == 300.0

    def test_infinite_threshold_never_arms(self):
        router = _pair(HedgeConfig(hedge_after=math.inf))
        assert router.hedge_after_threshold() is None

    def test_derived_threshold_needs_min_samples(self):
        router = _pair(HedgeConfig(min_samples=2, window=8))
        assert router.hedge_after_threshold() is None
        router.post_round(
            *as_tick([(0, _questions(4)), (1, _questions(4, start=10))]),
            now=0.0,
            tick=0,
        )
        # Two sub-batches posted -> two observed latencies -> armed.
        assert router.hedge_after_threshold() is not None


class TestHedgedRounds:
    def test_slow_primary_is_mirrored_to_the_fast_backend(self):
        router = _pair(HedgeConfig(hedge_after=300.0))
        outcome = router.post_round(
            *as_tick([(0, _questions(4)), (1, _questions(4, start=10))]),
            now=0.0,
            tick=0,
        )
        # least-loaded put one block on each backend; the slow one's
        # predicted ~400 s exceeds the 300 s threshold and rocket has
        # room, so that block was hedged.
        assert len(outcome.hedged_questions)
        assert router.hedges == 1
        assert outcome.n_posted == 8
        # Every hedged question still resolved exactly once.
        answered = set(map(tuple, outcome.questions.tolist()))
        assert set(map(tuple, outcome.hedged_questions.tolist())) <= answered

    def test_losing_copy_is_accounted_as_waste(self):
        router = _pair(HedgeConfig(hedge_after=300.0))
        router.post_round(
            *as_tick([(0, _questions(4)), (1, _questions(4, start=10))]),
            now=0.0,
            tick=0,
        )
        assert router.hedge_waste > 0

    def test_mirror_wins_when_the_primary_is_down(self):
        # slowpoke is mid-outage: the mirror copy is the only survivor.
        router = _pair(
            HedgeConfig(hedge_after=300.0),
            slow_faults=FaultProfile(
                outage_window=(0.0, 1e6), outage_detection_time=60.0
            ),
        )
        outcome = router.post_round(
            *as_tick([(0, _questions(4)), (1, _questions(4, start=10))]),
            now=10.0,
            tick=0,
        )
        assert router.hedge_wins == 1
        assert "slowpoke" in outcome.outaged
        assert not outcome.total_outage
        answered = set(map(tuple, outcome.questions.tolist()))
        assert set(map(tuple, outcome.hedged_questions.tolist())) <= answered

    def test_no_hedge_without_a_strictly_faster_mirror(self):
        # Identical backends: mirroring cannot beat the primary, so the
        # router must not double-post.
        router = _router(
            [
                BackendSpec(name="a", latency=SLOW, capacity=50),
                BackendSpec(name="b", latency=SLOW, capacity=50),
            ],
            hedge=HedgeConfig(hedge_after=300.0),
        )
        outcome = router.post_round(
            *as_tick([(0, _questions(4)), (1, _questions(4, start=10))]),
            now=0.0,
            tick=0,
        )
        assert len(outcome.hedged_questions) == 0
        assert router.hedges == 0

    def test_no_hedge_without_mirror_capacity(self):
        router = _router(
            [
                BackendSpec(name="slowpoke", latency=SLOW, capacity=50),
                BackendSpec(name="rocket", latency=FAST, capacity=4),
            ],
            hedge=HedgeConfig(hedge_after=300.0),
        )
        outcome = router.post_round(
            *as_tick([(0, _questions(8)), (1, _questions(4, start=10))]),
            now=0.0,
            tick=0,
        )
        assert len(outcome.hedged_questions) == 0

    def test_suspension_gates_hedging(self):
        router = _pair(HedgeConfig(hedge_after=300.0))
        router.hedging_suspended = True
        outcome = router.post_round(
            *as_tick([(0, _questions(4)), (1, _questions(4, start=10))]),
            now=0.0,
            tick=0,
        )
        assert len(outcome.hedged_questions) == 0
        router.hedging_suspended = False
        outcome = router.post_round(
            *as_tick([(0, _questions(4)), (1, _questions(4, start=10))]),
            now=5000.0,
            tick=1,
        )
        assert len(outcome.hedged_questions)

    def test_round_hedged_event_carries_the_pair(self):
        tracer = RecordingTracer()
        router = _pair(HedgeConfig(hedge_after=300.0))
        with use_tracer(tracer):
            router.post_round(
                *as_tick([(0, _questions(4)), (1, _questions(4, start=10))]),
                now=0.0,
                tick=3,
            )
        events = [
            r.event for r in tracer.records if r.event.kind == "RoundHedged"
        ]
        assert len(events) == 1
        assert events[0].tick == 3
        assert events[0].backend == "slowpoke"
        assert events[0].mirror == "rocket"
        assert events[0].winner in ("primary", "mirror")

    def test_state_dict_round_trips_hedge_totals(self):
        router = _pair(HedgeConfig(hedge_after=300.0))
        router.post_round(
            *as_tick([(0, _questions(4)), (1, _questions(4, start=10))]),
            now=0.0,
            tick=0,
        )
        clone = _pair(HedgeConfig(hedge_after=300.0))
        clone.load_state_dict(router.state_dict())
        assert clone.hedge_summary() == router.hedge_summary()
        assert clone.hedging_suspended == router.hedging_suspended
        assert clone.hedge_after_threshold() == router.hedge_after_threshold()
