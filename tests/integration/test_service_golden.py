"""Golden digests of single-platform service runs.

Every case runs one seeded :class:`~repro.service.MaxScheduler` workload on
a single crowd platform — traced and journaled — and pins three sha256
digests in ``golden/service_runs.json``:

* ``report`` — the ``repr`` of the final :class:`ServiceReport`;
* ``trace`` — every trace record, with the wall-clock ``seconds`` field
  zeroed (the only non-simulated payload in the stream);
* ``journal`` — every journal record except the header and the snapshots,
  whose layout is versioned by ``JOURNAL_VERSION`` rather than pinned here.

The matrix covers the clean path, the noisy crowd with repetition and
retries, random outages under a breaker, a sustained outage that makes the
breaker defer and probe, that breaker under enforced deadlines, and
deadlines with brownout under that outage.
Any change to how a single-platform round is posted shows up here.

To regenerate the snapshot after an *intentional* behaviour change::

    PYTHONPATH=src python tests/integration/test_service_golden.py

then review the JSON diff like any other code change.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest

from repro.core.latency import mturk_car_latency
from repro.crowd.breaker import CircuitBreakerConfig
from repro.crowd.error_models import UniformError
from repro.crowd.faults import RetryPolicy, fault_profile_by_name
from repro.obs import get_registry
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.service import (
    BrownoutConfig,
    MaxScheduler,
    SchedulerJournal,
    ServiceConfig,
    generate_workload,
    workload_by_name,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "service_runs.json"

#: Registry counters each case reports next to its digests, so tests can
#: assert the case really exercises the feature it is named after.
WATCHED_COUNTERS = (
    "circuit.opened",
    "circuit.deferred_rounds",
    "circuit.probes",
    "brownout.transitions",
)


def _cases():
    """name -> (workload, seed, scheduler keyword arguments)."""
    return {
        "clean_smoke": ("smoke", 7, {}),
        "lossy_noisy_repetition": (
            "smoke",
            7,
            dict(
                config=ServiceConfig(repetition=3),
                fault_profile=fault_profile_by_name("lossy"),
                retry_policy=RetryPolicy(),
                error_model=UniformError(0.1),
            ),
        ),
        "outages_retry_breaker": (
            "steady",
            3,
            dict(
                fault_profile=fault_profile_by_name("outages"),
                retry_policy=RetryPolicy(),
                breaker_config=CircuitBreakerConfig(failure_threshold=2),
            ),
        ),
        "sustained_breaker": (
            "smoke",
            11,
            dict(
                fault_profile=fault_profile_by_name("sustained"),
                breaker_config=CircuitBreakerConfig(failure_threshold=2),
            ),
        ),
        "sustained_breaker_deadline": (
            "deadline",
            3,
            dict(
                fault_profile=fault_profile_by_name("sustained"),
                retry_policy=RetryPolicy(),
                breaker_config=CircuitBreakerConfig(failure_threshold=2),
            ),
        ),
        "sustained_deadline_brownout": (
            "steady",
            5,
            dict(
                config=ServiceConfig(
                    repetition=2,
                    max_active_queries=4,
                    default_deadline=3000.0,
                    brownout=BrownoutConfig(queue_wait_threshold=300.0),
                ),
                fault_profile=fault_profile_by_name("sustained"),
                retry_policy=RetryPolicy(),
            ),
        ),
    }


def _sha256(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _trace_lines(tracer):
    for record in tracer.records:
        event = record.event
        if hasattr(event, "seconds"):
            event = dataclasses.replace(event, seconds=0.0)
        yield repr((event, record.sim_time))


def _journal_lines(path):
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["record"] in ("header", "snapshot"):
            continue
        yield json.dumps(record, sort_keys=True)


def run_case(name):
    """Run one case; returns its digests and watched counter deltas."""
    workload, seed, kwargs = _cases()[name]
    specs = generate_workload(workload_by_name(workload), seed=seed)
    registry = get_registry()
    before = {c: registry.counter(c).value for c in WATCHED_COUNTERS}
    tracer = RecordingTracer(clock=lambda: 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "run.jsonl"
        with use_tracer(tracer):
            with SchedulerJournal.create(path) as journal:
                report = MaxScheduler(
                    specs,
                    mturk_car_latency(),
                    seed=seed,
                    journal=journal,
                    **kwargs,
                ).run()
        journal_digest = _sha256(_journal_lines(path))
    counters = {
        c: registry.counter(c).value - before[c] for c in WATCHED_COUNTERS
    }
    return {
        "report": _sha256([repr(report)]),
        "trace": _sha256(_trace_lines(tracer)),
        "journal": journal_digest,
        "counters": counters,
    }


def compute_golden():
    """Every case's digests, keyed by case name."""
    return {name: run_case(name) for name in _cases()}


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"missing golden snapshot {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/integration/test_service_golden.py`"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return compute_golden()


def test_no_unknown_or_missing_cases(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_service_golden_case(golden, current, case):
    assert current[case] == golden[case]


def test_outages_trip_the_breaker(golden):
    assert golden["outages_retry_breaker"]["counters"]["circuit.opened"] > 0


def test_sustained_breaker_defers_and_probes(golden):
    counters = golden["sustained_breaker"]["counters"]
    assert counters["circuit.deferred_rounds"] > 0
    assert counters["circuit.probes"] > 0


def test_breaker_deadline_case_probes_under_deadlines(golden):
    counters = golden["sustained_breaker_deadline"]["counters"]
    assert counters["circuit.deferred_rounds"] > 0
    assert counters["circuit.probes"] >= 2


def test_brownout_case_changes_level(golden):
    counters = golden["sustained_deadline_brownout"]["counters"]
    assert counters["brownout.transitions"] > 0


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_digests_do_not_depend_on_the_hash_seed(golden, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, __file__, "--print"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(result.stdout) == golden


if __name__ == "__main__":
    if "--print" in sys.argv:
        print(json.dumps(compute_golden(), sort_keys=True))
    else:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(compute_golden(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {GOLDEN_PATH}")
