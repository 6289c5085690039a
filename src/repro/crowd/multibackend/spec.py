"""Declarative description of one federated crowd backend.

The paper's ``L(q)`` is the latency model of *one* platform; a deployment
spreading rounds over several crowd platforms needs one such model — plus
a capacity, a price and a failure story — *per platform*.
:class:`BackendSpec` is that bundle: a frozen, JSON-serializable value
object the :class:`~repro.crowd.multibackend.router.CapacityAwareRouter`
plans against and the scheduler journal records verbatim, so a recovered
multi-backend run is reconstructed from exactly the fleet it crashed with.

Specs are data, not behaviour: the runtime counterpart (platform + RWL +
breaker + seeded RNG streams) is built by
:func:`repro.crowd.multibackend.backend.build_backends`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.core.latency import LatencyFunction
from repro.crowd.breaker import CircuitBreakerConfig
from repro.crowd.faults import FaultProfile, fault_profile_by_name
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class BackendSpec:
    """One crowd platform in a federated fleet.

    Attributes:
        name: unique fleet-wide identifier; appears in span ids, journal
            records and the ``backend`` label of exported metrics.
        latency: the backend's own ``L(q)`` — the *predicted* completion
            time of a round of ``q`` questions, which the router
            minimizes when splitting a round across the fleet.  (The
            executed latency is whatever the backend's simulated worker
            pool measures, exactly as the scheduler-level ``latency`` is
            the planner's model, not the simulator's.)
        capacity: maximum distinct questions this backend accepts per
            shared round (its worker pool's throughput); ``None`` means
            unbounded.
        price_per_question: dollars per posted question, consumed by the
            ``weighted-price`` routing policy and the ``backend.cost``
            metric.
        fault_profile: optional fault injection local to this backend
            (its own dedicated fault RNG stream).
        breaker: optional circuit breaker guarding this backend; when its
            circuit opens the router reroutes the backend's share to the
            survivors instead of deferring the whole round.
        worker_config: optional worker-pool dynamics override for this
            backend (``None`` inherits the fleet-shared pool), so
            backends can genuinely execute at different speeds.
    """

    name: str
    latency: LatencyFunction
    capacity: Optional[int] = None
    price_per_question: float = 0.0
    fault_profile: Optional[FaultProfile] = None
    breaker: Optional[CircuitBreakerConfig] = None
    worker_config: Optional[WorkerPoolConfig] = None

    def __post_init__(self) -> None:
        if not self.name or "\n" in self.name:
            raise InvalidParameterError(
                f"backend name must be a non-empty single line, got "
                f"{self.name!r}"
            )
        if self.capacity is not None and self.capacity < 1:
            raise InvalidParameterError(
                f"backend {self.name!r} capacity must be >= 1 (or None), "
                f"got {self.capacity}"
            )
        if self.price_per_question < 0:
            raise InvalidParameterError(
                f"backend {self.name!r} price_per_question must be >= 0, "
                f"got {self.price_per_question}"
            )


#: Name of the lone backend a single-platform run is given.
SOLO_BACKEND_NAME = "platform"


def resolve_fleet(
    backends: Optional[Sequence[BackendSpec]],
    *,
    latency: LatencyFunction,
    fault_profile: Optional[FaultProfile] = None,
    breaker_config: Optional[CircuitBreakerConfig] = None,
) -> List[BackendSpec]:
    """The fleet a scheduler posts to: *backends*, or a one-spec fleet.

    Without *backends* the run is single-platform, and *fault_profile*
    and *breaker_config* are sugar for the fields of a lone
    :data:`SOLO_BACKEND_NAME` spec planned with *latency*.  With a fleet
    they must be ``None``: faults and breakers are per-backend fields of
    the specs.

    Raises:
        InvalidParameterError: *backends* combined with *fault_profile*
            or *breaker_config*.
    """
    if backends is None:
        return [
            BackendSpec(
                name=SOLO_BACKEND_NAME,
                latency=latency,
                fault_profile=fault_profile,
                breaker=breaker_config,
            )
        ]
    if fault_profile is not None:
        raise InvalidParameterError(
            "a fault profile and backends are mutually exclusive; attach "
            "per-backend fault profiles to the backend specs"
        )
    if breaker_config is not None:
        raise InvalidParameterError(
            "a breaker config and backends are mutually exclusive; attach "
            "per-backend breakers to the backend specs"
        )
    return list(backends)


def validate_fleet(specs: Sequence[BackendSpec]) -> None:
    """Reject empty fleets and duplicate backend names."""
    if not specs:
        raise InvalidParameterError("a backend fleet must contain >= 1 backend")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        raise InvalidParameterError(
            f"backend names must be unique within a fleet; duplicated: "
            f"{', '.join(duplicates)}"
        )


# ----------------------------------------------------------------------
# Serialization (journal header / --backends spec files)
# ----------------------------------------------------------------------
def backend_spec_to_dict(spec: BackendSpec) -> Dict[str, Any]:
    """Serialize one :class:`BackendSpec` to a JSON-ready dict."""
    import dataclasses

    from repro.persistence import latency_to_dict, worker_config_to_dict

    return {
        "name": spec.name,
        "latency": latency_to_dict(spec.latency),
        "capacity": spec.capacity,
        "price_per_question": float(spec.price_per_question),
        "fault_profile": (
            dataclasses.asdict(spec.fault_profile)
            if spec.fault_profile is not None
            else None
        ),
        "breaker": (
            dataclasses.asdict(spec.breaker)
            if spec.breaker is not None
            else None
        ),
        "worker_config": worker_config_to_dict(spec.worker_config),
    }


def backend_spec_from_dict(payload: Dict[str, Any]) -> BackendSpec:
    """Rebuild a :class:`BackendSpec` (validation re-runs on construction).

    The ``fault_profile`` field also accepts a named profile string
    (``"mild"``, ``"sustained"``, ...) for hand-written spec files; the
    journal always writes the expanded dict form.
    """
    from repro.persistence import latency_from_dict, worker_config_from_dict

    try:
        name = payload["name"]
        latency = latency_from_dict(payload["latency"])
    except (KeyError, TypeError) as error:
        raise InvalidParameterError(
            f"malformed backend spec payload: {error}"
        ) from None
    fault_payload = payload.get("fault_profile")
    if fault_payload is None:
        fault_profile = None
    elif isinstance(fault_payload, str):
        fault_profile = fault_profile_by_name(fault_payload)
    else:
        window = fault_payload.get("outage_window")
        if window is not None:
            fault_payload = dict(fault_payload, outage_window=tuple(window))
        fault_profile = FaultProfile(**fault_payload)
    breaker_payload = payload.get("breaker")
    breaker = (
        CircuitBreakerConfig(**breaker_payload)
        if breaker_payload is not None
        else None
    )
    capacity = payload.get("capacity")
    return BackendSpec(
        name=str(name),
        latency=latency,
        capacity=int(capacity) if capacity is not None else None,
        price_per_question=float(payload.get("price_per_question", 0.0)),
        fault_profile=fault_profile,
        breaker=breaker,
        worker_config=worker_config_from_dict(payload.get("worker_config")),
    )


def load_backend_specs(path: Union[str, Path]) -> List[BackendSpec]:
    """Load a fleet from a JSON file (the ``serve --backends`` format).

    The file is either a JSON list of backend-spec objects or an object
    with a ``"backends"`` list.  See ``docs/backends.md`` for the format.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidParameterError(
            f"no such backend spec file: {path}"
        ) from None
    except json.JSONDecodeError as error:
        raise InvalidParameterError(
            f"backend spec file {path} is not valid JSON: {error}"
        ) from None
    if isinstance(payload, dict):
        payload = payload.get("backends")
    if not isinstance(payload, list):
        raise InvalidParameterError(
            f"backend spec file {path} must hold a list of backend specs "
            f'(or an object with a "backends" list)'
        )
    specs = [backend_spec_from_dict(entry) for entry in payload]
    validate_fleet(specs)
    return specs
