"""Property tests for the attribution invariant.

The contract (docs/observability.md): for every completed query the
waterfall chunks tile ``[arrival, completion]`` exactly, so the
per-component durations sum — bitwise, no epsilon — to the query's
end-to-end latency.  And recording spans must not perturb the service:
a traced run's report, minus the attribution table, equals the
untraced run's report bit for bit.

Hypothesis drives random workloads through fault, retry, breaker and
backend-capacity configurations to hunt for tilings the hand-written tests
miss.  Under a capacity limit it also checks the ``stall`` label: a packed
query none of whose questions the router placed pays its tick as
``stall``, and a query with any question posted never does.
"""

import dataclasses
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.latency import LinearLatency
from repro.crowd.breaker import CircuitBreakerConfig
from repro.crowd.faults import FaultProfile, RetryPolicy
from repro.crowd.multibackend import BackendSpec
from repro.obs.attribution import waterfalls_from_records
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.service import MaxScheduler, QuerySpec

LATENCY = LinearLatency(239, 0.06)

query_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=25),      # n_elements
        st.integers(min_value=0, max_value=120),     # extra budget over n
        st.floats(min_value=0.0, max_value=4000.0,   # arrival time
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=5,
).map(
    lambda rows: [
        QuerySpec(
            query_id=i,
            n_elements=n,
            budget=(0 if n == 1 else n + extra),
            arrival_time=arrival,
        )
        for i, (n, extra, arrival) in enumerate(rows)
    ]
)

fault_profiles = st.one_of(
    st.none(),
    st.builds(
        FaultProfile,
        abandon_prob=st.floats(min_value=0.0, max_value=0.3),
        drop_prob=st.floats(min_value=0.0, max_value=0.3),
        outage_prob=st.floats(min_value=0.0, max_value=0.2),
    ),
)

breaker_configs = st.one_of(
    st.none(),
    st.builds(
        CircuitBreakerConfig,
        failure_threshold=st.integers(min_value=1, max_value=3),
        cooldown_seconds=st.floats(min_value=60.0, max_value=1200.0),
    ),
)


#: Distinct questions the lone backend takes per round (None = unbounded).
capacities = st.one_of(st.none(), st.integers(min_value=3, max_value=30))


def _scheduler(specs, seed, fault_profile, breaker_config, capacity=None):
    retry_policy = None
    if fault_profile is not None:
        retry_policy = RetryPolicy(max_attempts=3, base_backoff=30.0)
    fleet = dict(fault_profile=fault_profile, breaker_config=breaker_config)
    if capacity is not None:
        fleet = dict(
            backends=[
                BackendSpec(
                    name="tight",
                    latency=LATENCY,
                    capacity=capacity,
                    fault_profile=fault_profile,
                    breaker=breaker_config,
                )
            ]
        )
    return MaxScheduler(
        specs, LATENCY, seed=seed, retry_policy=retry_policy, **fleet
    )


def _run(specs, seed, fault_profile, breaker_config):
    return _scheduler(specs, seed, fault_profile, breaker_config).run()


def _record_placement(scheduler):
    """Wrap the router so each routed tick logs which queries it placed.

    Returns ``{(tick, query_id): placed_any}`` filled in as the run goes.
    """
    placed = {}
    post_round = scheduler.router.post_round

    def recording_post_round(questions, units, *, tick, **kwargs):
        outcome = post_round(questions, units, tick=tick, **kwargs)
        unposted = set(map(tuple, outcome.unposted.tolist()))
        start = 0
        for query_id, rows in units:
            block = questions[start:start + rows]
            start += rows
            placed[(tick, query_id)] = any(
                q not in unposted for q in map(tuple, block.tolist())
            )
        return outcome

    scheduler.router.post_round = recording_post_round
    return placed


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    specs=query_specs,
    seed=st.integers(min_value=0, max_value=2**16),
    fault_profile=fault_profiles,
    breaker_config=breaker_configs,
    capacity=capacities,
)
def test_waterfalls_tile_latency_exactly(
    specs, seed, fault_profile, breaker_config, capacity
):
    tracer = RecordingTracer()
    scheduler = _scheduler(
        specs, seed, fault_profile, breaker_config, capacity=capacity
    )
    placed = _record_placement(scheduler)
    with use_tracer(tracer):
        report = scheduler.run()
    waterfalls = waterfalls_from_records(tracer.records)
    assert set(waterfalls) == {s.query_id for s in specs}
    for result in report.results:
        wf = waterfalls[result.spec.query_id]
        wf.validate()
        # Bitwise equality: the tiling *is* the latency, not an estimate.
        assert wf.total == result.latency
        assert wf.chunk_sum == wf.total
        # Per-component floats each round once, so their plain sum may
        # drift by an ulp — that is the only slack allowed anywhere.
        assert sum(wf.components().values()) == pytest.approx(
            wf.total, rel=1e-12, abs=1e-9
        )
    for record in tracer.records:
        if record.event.kind != "SpanOpened":
            continue
        chunk = re.fullmatch(r"q(\d+)/t(\d+)", record.event.span_id)
        if chunk is None:
            continue
        key = (int(chunk.group(2)), int(chunk.group(1)))
        if key in placed:
            assert (record.event.name == "stall") == (not placed[key])


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    specs=query_specs,
    seed=st.integers(min_value=0, max_value=2**16),
    fault_profile=fault_profiles,
    breaker_config=breaker_configs,
)
def test_tracing_never_perturbs_the_report(
    specs, seed, fault_profile, breaker_config
):
    untraced = _run(specs, seed, fault_profile, breaker_config)
    with use_tracer(RecordingTracer()):
        traced = _run(specs, seed, fault_profile, breaker_config)
    assert untraced.attribution is None
    # Only all-zero-latency workloads (instant trivial queries) produce
    # no chunks at all; anything that took time must be attributed.
    if any(r.latency for r in traced.results):
        assert traced.attribution is not None
    assert dataclasses.replace(traced, attribution=None) == untraced
