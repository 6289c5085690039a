"""Multi-backend crowd federation: capacity-aware routing with failover.

The paper's single-platform model generalized to a fleet: declare each
platform as a :class:`BackendSpec` (its own L(q), capacity, price, fault
profile and circuit breaker), build the live fleet with
:func:`build_backends`, and let the :class:`CapacityAwareRouter` split
every scheduler round across the backends — minimizing predicted round
latency under per-backend load limits, with breaker-driven failover.
Every scheduler run has a fleet: :func:`resolve_fleet` turns a
single-platform run into a one-backend fleet.

See ``docs/backends.md`` for the spec-file format, routing policies,
failover semantics and the determinism contract.
"""

from repro.crowd.multibackend.backend import Backend, build_backends
from repro.crowd.multibackend.presets import (
    available_backend_presets,
    backend_preset_by_name,
    resolve_backends,
)
from repro.crowd.multibackend.router import (
    PROBE_QUESTIONS,
    ROUTING_POLICIES,
    CapacityAwareRouter,
    HedgeConfig,
    RouteDecision,
    RoundOutcome,
)
from repro.crowd.multibackend.spec import (
    SOLO_BACKEND_NAME,
    BackendSpec,
    backend_spec_from_dict,
    backend_spec_to_dict,
    load_backend_specs,
    resolve_fleet,
    validate_fleet,
)

__all__ = [
    "Backend",
    "BackendSpec",
    "CapacityAwareRouter",
    "HedgeConfig",
    "PROBE_QUESTIONS",
    "ROUTING_POLICIES",
    "RouteDecision",
    "RoundOutcome",
    "SOLO_BACKEND_NAME",
    "available_backend_presets",
    "backend_preset_by_name",
    "backend_spec_from_dict",
    "backend_spec_to_dict",
    "build_backends",
    "load_backend_specs",
    "resolve_backends",
    "resolve_fleet",
    "validate_fleet",
]
