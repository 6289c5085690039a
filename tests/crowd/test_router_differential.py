"""The router's placement of a tick against the per-unit reference.

:meth:`CapacityAwareRouter._assign` places a tick's units by their row
counts and cuts every backend's batch out of the tick's one question
array with a per-row target.  :func:`reference_assign` places each unit's
own block and concatenates what each backend got.  Over random fleets
(capacities, price and latency policies), breaker decisions (probe
quotas, deferred backends), per-query budgets and units too large for any
backend (phase-2 splits), both must give every backend the same rows in
the same order, leave the same rows unposted and the same capacity
remaining, and count the same splits and budget overrides.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import LinearLatency
from repro.crowd.breaker import RoundDecision
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.multibackend import (
    ROUTING_POLICIES,
    BackendSpec,
    CapacityAwareRouter,
    build_backends,
)
from repro.errors import InvalidParameterError
from repro.obs.metrics import get_registry
from tests.crowd.router_reference import as_tick, reference_assign

COUNTERS = ("router.split_units", "router.budget_overrides")


def counts():
    registry = get_registry()
    return [registry.counter(name).value for name in COUNTERS]


def placed(router, place, units, decisions, budgets):
    """*place*'s placement and the counter increments it made."""
    before = counts()
    assignment, unposted, remaining = place(router, units, decisions, budgets)
    after = counts()
    return (
        [batch.tolist() for batch in assignment],
        unposted.tolist(),
        remaining,
        [b - a for a, b in zip(before, after)],
    )


def new_assign(router, units, decisions, budgets):
    return router._assign(*as_tick(units), decisions, budgets=budgets)


@st.composite
def fleets(draw):
    """Backend specs with small or unbounded capacities."""
    specs = []
    for i in range(draw(st.integers(1, 3))):
        specs.append(
            BackendSpec(
                name=f"b{i}",
                latency=LinearLatency(
                    delta=draw(st.sampled_from([50.0, 100.0, 400.0])),
                    alpha=draw(st.sampled_from([0.05, 0.1, 0.5])),
                ),
                capacity=draw(st.one_of(st.none(), st.integers(1, 40))),
                price_per_question=draw(st.sampled_from([0.01, 0.05, 0.1])),
            )
        )
    return specs


@st.composite
def ticks(draw):
    """``(query_id, block)`` units of distinct rows, and per-query
    budgets for some of them."""
    units = []
    start = 0
    for query_id in range(draw(st.integers(0, 8))):
        size = draw(st.integers(0, 30))
        block = np.stack(
            (np.arange(start, start + size), np.arange(start, start + size) + 10_000),
            axis=1,
        )
        units.append((query_id, block))
        start += size
    budgets = draw(
        st.one_of(
            st.none(),
            st.dictionaries(
                st.integers(0, 7), st.sampled_from([1.0, 60.0, 120.0, 500.0])
            ),
        )
    )
    return units, budgets or None


@settings(max_examples=150, deadline=None)
@given(
    specs=fleets(),
    policy=st.sampled_from(ROUTING_POLICIES),
    tick=ticks(),
    data=st.data(),
)
def test_assign_places_as_the_per_unit_reference(specs, policy, tick, data):
    units, budgets = tick
    truth = GroundTruth.random(20, np.random.default_rng(0))
    router = CapacityAwareRouter(build_backends(specs, truth, 0), policy)
    decisions = {
        backend.index: data.draw(st.sampled_from(list(RoundDecision)))
        for backend in router.backends
    }
    assert placed(router, new_assign, units, decisions, budgets) == placed(
        router, reference_assign, units, decisions, budgets
    )


def test_the_cases_come_up():
    """Splits over several backends, probe quotas, budget overrides and
    the one-backend round all occur in these fixed ticks, and match."""
    truth = GroundTruth.random(20, np.random.default_rng(0))
    fast = LinearLatency(delta=50.0, alpha=0.5)
    slow = LinearLatency(delta=400.0, alpha=0.05)
    blocks = [
        (i, np.stack((np.arange(10 * i, 10 * i + 9), np.arange(9) + 100), axis=1))
        for i in range(6)
    ]
    post, probe = RoundDecision.POST, RoundDecision.PROBE
    cases = [
        # Three backends too small for a unit: phase-2 splits.
        ([BackendSpec(name=n, latency=fast, capacity=4) for n in "abc"],
         "latency", {0: post, 1: post, 2: post}, None),
        # A probing backend takes at most the probe quota.
        ([BackendSpec(name="a", latency=fast), BackendSpec(name="b", latency=slow)],
         "weighted-price", {0: probe, 1: post}, None),
        # Tight budgets override the price policy's pick.
        ([BackendSpec(name="cheap", latency=slow, price_per_question=0.01),
          BackendSpec(name="quick", latency=fast, price_per_question=0.1)],
         "weighted-price", {0: post, 1: post}, {0: 60.0, 3: 60.0}),
        # One backend with room for the whole round.
        ([BackendSpec(name="solo", latency=fast)], "latency", {0: post}, None),
    ]
    seen = set()
    for specs, policy, decisions, budgets in cases:
        router = CapacityAwareRouter(build_backends(specs, truth, 0), policy)
        new = placed(router, new_assign, blocks, decisions, budgets)
        assert new == placed(router, reference_assign, blocks, decisions, budgets)
        batches, _, _, (splits, overrides) = new
        seen.add("split" if splits and sum(map(bool, batches)) > 1 else None)
        seen.add("override" if overrides else None)
        seen.add("probe" if probe in decisions.values() else None)
        seen.add("solo" if len(batches) == 1 else None)
    assert {"split", "override", "probe", "solo"} <= seen


def test_a_one_backend_round_posts_the_tick_array():
    """When every row goes to one backend, its batch is the tick's array."""
    truth = GroundTruth.random(20, np.random.default_rng(0))
    router = CapacityAwareRouter(
        build_backends([BackendSpec(name="solo", latency=LinearLatency(100.0, 0.1))], truth, 0)
    )
    questions, units = as_tick(
        [(0, [(0, 1), (2, 3)]), (1, [(4, 5)])]
    )
    assignment, unposted, _ = router._assign(
        questions, units, {0: RoundDecision.POST}
    )
    assert assignment[0] is questions
    assert len(unposted) == 0


@pytest.mark.parametrize("units", [[(0, 2)], [(0, 4), (1, -1)], [(0, 1), (1, 1)]])
def test_units_must_tile_the_round(units):
    """Unit row counts that are negative or do not add up to the round's
    rows are rejected before anything is posted."""
    truth = GroundTruth.random(20, np.random.default_rng(0))
    router = CapacityAwareRouter(
        build_backends([BackendSpec(name="solo", latency=LinearLatency(100.0, 0.1))], truth, 0)
    )
    questions = np.array([(0, 1), (2, 3), (4, 5)], np.int64)
    with pytest.raises(InvalidParameterError, match="add up"):
        router.post_round(questions, units, now=0.0, tick=0)
    assert router.backends[0].rounds == 0
