"""Admission control: what happens when queries arrive faster than they drain.

The service bounds two things: how many queries may be *in flight*
(running sessions) and how many may *wait* behind them.  When both bounds
are hit, an arriving query is either **shed** (rejected immediately, the
requester is told to come back later) or **deferred** (left in the arrival
backlog and re-offered on the next tick) depending on the configured
overload policy.  Shedding keeps latency predictable for admitted work;
deferring keeps completeness at the price of unbounded queueing delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import InvalidParameterError

#: Valid values of ``AdmissionConfig.overload_policy``.
OVERLOAD_POLICIES = ("shed", "defer")


class AdmissionDecision(str, Enum):
    """Outcome of offering one arriving query to admission control."""

    ADMIT = "admit"
    DEFER = "defer"
    SHED = "shed"


@dataclass(frozen=True)
class AdmissionConfig:
    """Bounds and overload behaviour of the admission controller.

    Attributes:
        max_active_queries: queries allowed to run sessions concurrently.
        max_queue_depth: admitted-but-waiting queries allowed behind them.
        overload_policy: ``"shed"`` rejects an arrival that finds both
            bounds full; ``"defer"`` leaves it in the arrival backlog to
            be offered again next tick.
    """

    max_active_queries: int = 16
    max_queue_depth: int = 64
    overload_policy: str = "defer"

    def __post_init__(self) -> None:
        if self.max_active_queries < 1:
            raise InvalidParameterError(
                f"max_active_queries must be >= 1, got {self.max_active_queries}"
            )
        if self.max_queue_depth < 0:
            raise InvalidParameterError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise InvalidParameterError(
                f"overload_policy must be one of {OVERLOAD_POLICIES}, "
                f"got {self.overload_policy!r}"
            )


class AdmissionController:
    """Stateless gate evaluating one arrival against the current load."""

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config

    def decide(self, n_active: int, n_waiting: int) -> AdmissionDecision:
        """Admit, defer or shed one arriving query.

        Admission bounds the *joint* occupancy ``n_active + n_waiting``
        against ``max_active_queries + max_queue_depth`` — the scheduler
        may offer a whole arrival burst before promoting anyone into an
        active slot, so the two counts must be interchangeable here.

        Args:
            n_active: queries currently running sessions.
            n_waiting: admitted queries waiting for a session slot.
        """
        if self.free_slots(n_active, n_waiting):
            return AdmissionDecision.ADMIT
        if self.config.overload_policy == "shed":
            return AdmissionDecision.SHED
        return AdmissionDecision.DEFER

    def free_slots(self, n_active: int, n_waiting: int) -> int:
        """How many arrivals in a row :meth:`decide` admits at this load,
        each taking a slot."""
        config = self.config
        capacity = config.max_active_queries + config.max_queue_depth
        return max(0, capacity - n_active - n_waiting)

    def describe_overload(self) -> str:
        """Reason string attached to shed results and trace events."""
        config = self.config
        return (
            f"queue full ({config.max_active_queries} active + "
            f"{config.max_queue_depth} waiting)"
        )
