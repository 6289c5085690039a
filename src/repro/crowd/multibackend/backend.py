"""Runtime counterpart of a :class:`~repro.crowd.multibackend.spec.BackendSpec`.

One :class:`Backend` bundles everything a federated platform needs to run
deterministically: its simulated platform (sharing the fleet-wide ground
truth, error model and worker-pool dynamics), an optional fault-injection
wrapper, an optional circuit breaker, and its *own*
:class:`~repro.crowd.rwl.ReliableWorkerLayer` — so repetition, majority
voting and retry backoff all draw from per-backend RNG streams.

RNG stream contract: backend *i* of every fleet — a single-platform
scheduler run is a fleet of one — draws platform / RWL / faults from
``(seed, 1, i)`` / ``(seed, 2, i)`` / ``(seed, 3, i)``.  The streams are
independent per backend, so one backend's faults never perturb another's
answers, and the journal can snapshot/restore each stream separately.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.crowd.breaker import CircuitBreaker
from repro.crowd.error_models import ErrorModel
from repro.crowd.faults import FaultStats, FaultyPlatform, RetryPolicy
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.multibackend.spec import BackendSpec, validate_fleet
from repro.crowd.platform import Platform, PlatformStats, SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import JournalCorruptError


class Backend:
    """One live federated backend: platform stack + breaker + RWL.

    Built by :func:`build_backends`; the router posts to
    :attr:`rwl` and consults :attr:`breaker`, the journal snapshots
    :meth:`state_dict`.
    """

    def __init__(
        self,
        spec: BackendSpec,
        index: int,
        platform: Platform,
        rwl: ReliableWorkerLayer,
        breaker: Optional[CircuitBreaker],
    ) -> None:
        self.spec = spec
        self.index = index
        self.platform = platform
        self.rwl = rwl
        self.breaker = breaker
        #: Cumulative distinct questions this backend resolved.
        self.questions_posted = 0
        #: Rounds this backend participated in.
        self.rounds = 0
        #: Whole-round outages this backend suffered.
        self.outages = 0
        #: Dollars spent on this backend (price * posted copies).
        self.cost = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def faulty(self) -> Optional[FaultyPlatform]:
        platform = self.platform
        return platform if isinstance(platform, FaultyPlatform) else None

    @property
    def inner(self) -> SimulatedPlatform:
        faulty = self.faulty
        return faulty.inner if faulty is not None else self.platform

    def set_clock(self, now: float) -> None:
        """Gate this backend's sustained-outage window on simulated time."""
        faulty = self.faulty
        if faulty is not None:
            faulty.set_clock(now)

    def breaker_state(self) -> str:
        """The breaker state label (``"closed"`` for breaker-less backends)."""
        return self.breaker.state.value if self.breaker is not None else "closed"

    # ------------------------------------------------------------------
    # Snapshot / restore (consumed by repro.service.journal)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialize this backend's mutable state for a journal snapshot."""
        faulty = self.faulty
        inner = self.inner
        return {
            "name": self.name,
            "rng": {
                "platform": inner._rng.bit_generator.state,
                "rwl": self.rwl._rng.bit_generator.state,
                "fault": (
                    faulty._fault_rng.bit_generator.state
                    if faulty is not None
                    else None
                ),
            },
            "platform": {
                "next_worker_id": inner._next_worker_id,
                "stats": dataclasses.asdict(inner.stats),
            },
            "fault": (
                {
                    "stats": faulty.fault_stats.as_dict(),
                    "clock": float(faulty.clock),
                }
                if faulty is not None
                else None
            ),
            "breaker": (
                self.breaker.state_dict() if self.breaker is not None else None
            ),
            "counters": {
                "questions_posted": self.questions_posted,
                "rounds": self.rounds,
                "outages": self.outages,
                "cost": float(self.cost),
            },
        }

    def load_state_dict(self, payload: Dict[str, Any]) -> None:
        """Restore the counterpart of :meth:`state_dict`."""
        from repro.persistence import generator_from_state

        if payload.get("name") != self.name:
            raise JournalCorruptError(
                f"snapshot backend {payload.get('name')!r} does not match "
                f"configured backend {self.name!r}"
            )
        faulty = self.faulty
        inner = self.inner
        rng_states = payload["rng"]
        inner._rng = generator_from_state(rng_states["platform"])
        self.rwl._rng = generator_from_state(rng_states["rwl"])
        if faulty is not None:
            if rng_states["fault"] is None:
                raise JournalCorruptError(
                    f"snapshot lacks the fault RNG state of faulty backend "
                    f"{self.name!r}"
                )
            faulty._fault_rng = generator_from_state(rng_states["fault"])
            fault = payload["fault"]
            faulty.fault_stats = FaultStats(**fault["stats"])
            faulty.clock = float(fault["clock"])
        inner._next_worker_id = int(payload["platform"]["next_worker_id"])
        inner.stats = PlatformStats(**payload["platform"]["stats"])
        breaker_state = payload.get("breaker")
        if self.breaker is not None and breaker_state is not None:
            self.breaker.load_state_dict(breaker_state)
        counters = payload["counters"]
        self.questions_posted = int(counters["questions_posted"])
        self.rounds = int(counters["rounds"])
        self.outages = int(counters["outages"])
        self.cost = float(counters["cost"])


def build_backends(
    specs: Sequence[BackendSpec],
    truth: GroundTruth,
    seed: int,
    *,
    repetition: int = 1,
    retry_policy: Optional[RetryPolicy] = None,
    error_model: Optional[ErrorModel] = None,
    worker_config: Optional[WorkerPoolConfig] = None,
) -> List[Backend]:
    """Instantiate the live fleet for *specs* over a shared ground truth.

    All backends sample the same hidden order (they are different doors
    to the same crowd task), with per-backend RNG streams per the module
    contract above.
    """
    validate_fleet(specs)
    backends: List[Backend] = []
    for index, spec in enumerate(specs):
        platform: Platform = SimulatedPlatform(
            truth,
            np.random.default_rng((seed, 1, index)),
            error_model=error_model,
            config=(
                spec.worker_config
                if spec.worker_config is not None
                else worker_config
            ),
        )
        if spec.fault_profile is not None:
            platform = FaultyPlatform(
                platform,
                spec.fault_profile,
                np.random.default_rng((seed, 3, index)),
            )
        breaker = (
            CircuitBreaker(spec.breaker) if spec.breaker is not None else None
        )
        rwl = ReliableWorkerLayer(
            platform,
            np.random.default_rng((seed, 2, index)),
            repetition=repetition,
            retry_policy=retry_policy,
            breaker=breaker,
        )
        backends.append(Backend(spec, index, platform, rwl, breaker))
    return backends
