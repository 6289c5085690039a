"""Golden digests of batch MAX engine runs.

Every case runs one seeded :class:`~repro.engine.max_engine.MaxEngine` or
:class:`~repro.engine.adaptive.AdaptiveMaxEngine` run under a recording
tracer and pins three sha256 digests in ``golden/engine_runs.json``:

* ``result`` — the ``repr`` of the :class:`MaxRunResult` (winner, totals,
  per-round records and the allocation);
* ``trace`` — every trace record, with the wall-clock ``seconds`` field
  zeroed (the only non-simulated payload in the stream);
* ``metrics`` — the ``engine.*`` instruments the run touched, from a
  registry reset just before it.

The matrix covers every allocator × selector on the oracle, hand-built
allocations with an empty round and an early stop, a lossy oracle with and
without re-planning, the adaptive engine × every selector, and static and
adaptive runs on the simulated platform (clean, lossy, and lossy with
retries, repetition and worker error).  Any change to the round loop of
either engine shows up here.

:class:`~repro.engine.topk.TopKEngine` (every selector on the oracle, and
one lossy, noisy platform with retries) and
:class:`~repro.engine.adversarial.AdversarialMaxEngine` (every mode ×
selector) pin only the ``result`` digest: their results were pinned
before they moved onto the shared round loop, which gave them the batch
engines' trace events and ``engine.*`` counters.

To regenerate the snapshot after an *intentional* behaviour change::

    PYTHONPATH=src python tests/integration/test_engine_golden.py

then review the JSON diff like any other code change.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.latency import LinearLatency
from repro.core.registry import allocator_by_name, available_allocators
from repro.core.tdp import TDPAllocator
from repro.crowd.error_models import UniformError
from repro.crowd.faults import FaultyPlatform, RetryPolicy, fault_profile_by_name
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer
from repro.engine.adaptive import AdaptiveMaxEngine
from repro.engine.adversarial import AdversarialMaxEngine
from repro.engine.max_engine import (
    AnswerSource,
    MaxEngine,
    OracleAnswerSource,
    PlatformAnswerSource,
)
from repro.engine.simulation import run_once_on_platform
from repro.engine.topk import TopKEngine
from repro.obs import get_registry
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.selection.registry import available_selectors, selector_by_name
from repro.selection.tournament import TournamentFormation

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "engine_runs.json"

# The paper's fitted MTurk model (Section 6.1): L(q) = 529 + 251*q.
LATENCY = LinearLatency(delta=529.0, alpha=251.0)

#: Registry counters each case reports next to its digests, so tests can
#: assert the case really takes the path it is named after.
WATCHED_COUNTERS = ("engine.degraded_rounds", "engine.replans")

#: Case-name prefixes whose entries pin the ``result`` digest alone.
RESULT_ONLY = ("topk/", "adversarial/")


class LossyOracleSource(AnswerSource):
    """Truthful answers, but silently loses some questions in round one."""

    def __init__(self, truth, latency, lose_first_n):
        self._inner = OracleAnswerSource(truth, latency)
        self.lose_first_n = lose_first_n
        self.rounds_seen = 0

    def resolve(self, questions):
        answers, latency = self._inner.resolve(questions)
        self.rounds_seen += 1
        if self.rounds_seen == 1:
            answers = answers[self.lose_first_n:]
        return answers, latency


def _oracle_static(allocator, selector, n_elements=16, budget=40, seed=7):
    def run():
        rng = np.random.default_rng(seed)
        truth = GroundTruth.random(n_elements, rng)
        allocation = allocator_by_name(allocator).allocate(
            n_elements, budget, LATENCY
        )
        engine = MaxEngine(
            selector_by_name(selector), OracleAnswerSource(truth, LATENCY), rng
        )
        return engine.run(truth, allocation)

    return run


def _hand_built(round_budgets, n_elements=10, seed=7):
    def run():
        rng = np.random.default_rng(seed)
        truth = GroundTruth.random(n_elements, rng)
        engine = MaxEngine(
            TournamentFormation(), OracleAnswerSource(truth, LATENCY), rng
        )
        return engine.run(truth, Allocation(tuple(round_budgets)))

    return run


def _lossy_oracle(replan, n_elements=32, budget=60, seed=3):
    def run():
        latency = LinearLatency(delta=60.0, alpha=2.0)
        rng = np.random.default_rng(seed)
        truth = GroundTruth.random(n_elements, rng)
        allocation = TDPAllocator().allocate(n_elements, budget, latency)
        engine = MaxEngine(
            TournamentFormation(),
            LossyOracleSource(truth, latency, lose_first_n=4),
            rng,
            replan_latency=latency if replan else None,
        )
        return engine.run(truth, allocation)

    return run


def _oracle_adaptive(selector, n_elements=16, budget=40, seed=7):
    def run():
        rng = np.random.default_rng(seed)
        truth = GroundTruth.random(n_elements, rng)
        engine = AdaptiveMaxEngine(
            selector_by_name(selector),
            OracleAnswerSource(truth, LATENCY),
            LATENCY,
            rng,
        )
        return engine.run(truth, budget)

    return run


_PLATFORM_STACKS = {
    "clean": {},
    "lossy": dict(fault_profile=fault_profile_by_name("lossy")),
    "lossy_retry_noisy": dict(
        fault_profile=fault_profile_by_name("lossy"),
        retry_policy=RetryPolicy(),
        repetition=3,
        error_model=UniformError(0.1),
    ),
}


def _platform(adaptive, stack, n_elements=24, budget=50, seed=3):
    def run():
        return run_once_on_platform(
            n_elements,
            budget,
            TDPAllocator(),
            TournamentFormation(),
            LATENCY,
            seed=seed,
            adaptive=adaptive,
            **_PLATFORM_STACKS[stack],
        )

    return run


def _oracle_topk(selector, n_elements=16, k=3, budget=40, seed=7):
    def run():
        rng = np.random.default_rng(seed)
        truth = GroundTruth.random(n_elements, rng)
        engine = TopKEngine(
            selector_by_name(selector),
            OracleAnswerSource(truth, LATENCY),
            LATENCY,
            rng,
        )
        return engine.run(truth, k, budget)

    return run


def _platform_topk(stack, n_elements=24, k=3, budget=60, seed=3):
    def run():
        options = _PLATFORM_STACKS[stack]
        rng = np.random.default_rng((seed, 0))
        truth = GroundTruth.random(n_elements, rng)
        platform = FaultyPlatform(
            SimulatedPlatform(truth, rng, error_model=options["error_model"]),
            options["fault_profile"],
            np.random.default_rng((seed, 1)),
        )
        rwl = ReliableWorkerLayer(
            platform,
            rng,
            repetition=options["repetition"],
            retry_policy=options["retry_policy"],
        )
        engine = TopKEngine(
            TournamentFormation(), PlatformAnswerSource(rwl), LATENCY, rng
        )
        return engine.run(truth, k, budget)

    return run


def _adversarial(mode, selector, n_elements=24, budget=60, seed=7):
    def run():
        allocation = TDPAllocator().allocate(n_elements, budget, LATENCY)
        engine = AdversarialMaxEngine(
            selector_by_name(selector),
            LATENCY,
            np.random.default_rng(seed),
            mode=mode,
        )
        return engine.run(n_elements, allocation)

    return run


def _cases():
    """name -> zero-argument callable returning a run's result."""
    cases = {}
    for allocator in available_allocators():
        for selector in available_selectors():
            cases[f"static/{allocator}/{selector}"] = _oracle_static(
                allocator, selector
            )
    cases["static/empty_round"] = _hand_built((0, 45))
    cases["static/early_stop"] = _hand_built((200, 50, 50))
    cases["static/lossy_stale"] = _lossy_oracle(replan=False)
    cases["static/lossy_replan"] = _lossy_oracle(replan=True)
    for selector in available_selectors():
        cases[f"adaptive/{selector}"] = _oracle_adaptive(selector)
    for engine, adaptive in (("static", False), ("adaptive", True)):
        for stack in _PLATFORM_STACKS:
            cases[f"platform/{engine}/{stack}"] = _platform(adaptive, stack)
    for selector in available_selectors():
        cases[f"topk/{selector}"] = _oracle_topk(selector)
    cases["topk/platform_lossy_retry_noisy"] = _platform_topk(
        "lossy_retry_noisy"
    )
    for mode in ("exact", "greedy"):
        for selector in available_selectors():
            cases[f"adversarial/{mode}/{selector}"] = _adversarial(
                mode, selector
            )
    return cases


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


def _engine_metrics(registry):
    """The ``engine.*`` instruments a run touched, as sorted JSON."""
    touched = {
        name: state
        for name, state in registry.snapshot().items()
        if name.startswith("engine.")
        and (state.get("value") or state.get("count"))
    }
    return json.dumps(touched, sort_keys=True)


def run_case(name):
    """Run one case; returns its digests and watched counter values."""
    registry = get_registry()
    registry.reset()
    tracer = RecordingTracer(clock=lambda: 0.0)
    with use_tracer(tracer):
        result = _cases()[name]()
    if name.startswith(RESULT_ONLY):
        return {"result": _sha256([repr(result)])}
    return {
        "result": _sha256([repr(result)]),
        "trace": _sha256(_trace_lines(tracer)),
        "metrics": _sha256([_engine_metrics(registry)]),
        "counters": {c: registry.counter(c).value for c in WATCHED_COUNTERS},
    }


def compute_golden():
    """Every case's digests, keyed by case name."""
    return {name: run_case(name) for name in _cases()}


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"missing golden snapshot {GOLDEN_PATH}; regenerate with "
            "`PYTHONPATH=src python tests/integration/test_engine_golden.py`"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def current():
    return compute_golden()


def test_no_unknown_or_missing_cases(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_engine_golden_case(golden, current, case):
    assert current[case] == golden[case]


@pytest.mark.parametrize(
    "case",
    [
        "static/lossy_stale",
        "static/lossy_replan",
        "platform/static/lossy",
        "platform/adaptive/lossy",
    ],
)
def test_lossy_cases_degrade(golden, case):
    assert golden[case]["counters"]["engine.degraded_rounds"] >= 1


@pytest.mark.parametrize(
    "case", ["static/lossy_replan", "platform/static/lossy"]
)
def test_replanning_cases_replan(golden, case):
    assert golden[case]["counters"]["engine.replans"] >= 1


def test_stale_allocation_never_replans(golden):
    assert golden["static/lossy_stale"]["counters"]["engine.replans"] == 0


def test_empty_round_is_skipped():
    result = _cases()["static/empty_round"]()
    assert [r.round_index for r in result.records] == [1]


def test_early_stop_leaves_rounds_unused():
    result = _cases()["static/early_stop"]()
    assert result.singleton_termination
    assert result.rounds_run < result.allocation.rounds


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
