"""Service invariants under every fleet preset and two fault profiles.

Whatever the fleet, a run of error-free workers must keep the service's
contract: each query reaches exactly one terminal state, none spends
past its budget, every completed query returns the true MAX, and
tracing changes nothing but the attribution table.
"""

import dataclasses

import pytest

from repro.core.latency import mturk_car_latency
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.crowd.multibackend import backend_preset_by_name
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.service import (
    MaxScheduler,
    QueryState,
    generate_workload,
    workload_by_name,
)

TERMINAL = {QueryState.COMPLETED, QueryState.DEGRADED, QueryState.SHED}

#: (fleet preset, fault profile); a fault profile runs on the solo fleet
#: with the default retry policy.  ``duo@60`` is the ``duo`` fleet with
#: every backend's capacity cut to 60, which leaves questions unposted
#: in most rounds and splits query blocks across both backends.
FLEETS = [
    ("solo", None),
    ("duo", None),
    ("trio", None),
    ("outage-trio", None),
    ("duo@60", None),
    ("solo", "lossy"),
    ("solo", "outages"),
]


def _fleet(preset):
    """The backends of *preset*, ``name@capacity`` capping each of them."""
    name, _, capacity = preset.partition("@")
    specs = backend_preset_by_name(name)
    if not capacity:
        return specs
    return [dataclasses.replace(spec, capacity=int(capacity)) for spec in specs]


def _run(preset, faults, specs):
    if faults is None:
        fleet = dict(backends=_fleet(preset))
    else:
        fleet = dict(
            fault_profile=fault_profile_by_name(faults),
            retry_policy=RetryPolicy(),
        )
    return MaxScheduler(specs, mturk_car_latency(), seed=0, **fleet).run()


@pytest.mark.parametrize(
    "preset, faults", FLEETS, ids=[f"{p}-{f or 'clean'}" for p, f in FLEETS]
)
def test_service_invariants(preset, faults):
    specs = generate_workload(workload_by_name("steady"), seed=0)
    report = _run(preset, faults, specs)

    assert sorted(r.spec.query_id for r in report.results) == sorted(
        spec.query_id for spec in specs
    )
    by_id = {r.spec.query_id: r for r in report.results}
    for spec in specs:
        result = by_id[spec.query_id]
        assert result.spec == spec
        assert result.state in TERMINAL
        assert result.questions_posted <= spec.budget
        if result.state is QueryState.COMPLETED:
            assert result.correct is True

    with use_tracer(RecordingTracer()):
        traced = _run(preset, faults, specs)
    assert dataclasses.replace(traced, attribution=None) == report
