"""End-to-end latency budgets and the overload brownout controller.

The paper allocates a latency budget *offline*; this module enforces it
*online*.  A :class:`LatencyBudget` is attached to every admitted query
(from :attr:`QuerySpec.deadline` or ``ServiceConfig.default_deadline``)
and threaded through every downstream layer:

* the scheduler degrades or replans queries whose remaining budget cannot
  cover the planned rounds (see ``MaxScheduler._replan_for_deadline``);
* the router prefers faster backends for near-deadline chunks and hedges
  predicted-slow chunks (:class:`~repro.crowd.multibackend.HedgeConfig`);
* the RWL clips retry backoff to the remaining budget, never to the
  global retry deadline alone.

The :class:`BrownoutController` is the overload half: when the live
queue-wait p95 crosses a threshold it escalates one level per tick —

===== =======================================================
level effect (cumulative)
===== =======================================================
1     shed new low-priority admissions (``priority <= 0``)
2     post rounds at repetition 1 (widened degradation)
3     disable hedged posting (hedges amplify load)
===== =======================================================

— and de-escalates one level per tick once the p95 drops below
``threshold * clear_fraction`` (hysteresis), restoring effects in
reverse order.  Every transition is journaled and the level is
snapshotted, so crash recovery replays brownout decisions bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError

__all__ = [
    "DEADLINE_MET",
    "DEADLINE_DEGRADED",
    "DEADLINE_SHED",
    "DEADLINE_EXCEEDED",
    "DEADLINE_OUTCOMES",
    "LatencyBudget",
    "BrownoutConfig",
    "BrownoutController",
]

#: The query finished (completed) at or before its deadline.
DEADLINE_MET = "met"
#: The scheduler degraded the query to a partial-confidence answer in
#: time, rather than letting it silently blow the deadline.
DEADLINE_DEGRADED = "degraded"
#: The query was shed (admission control or brownout) before running.
DEADLINE_SHED = "shed"
#: The query finished after its deadline had already passed.
DEADLINE_EXCEEDED = "exceeded"

#: Every terminal deadline outcome, in report order.
DEADLINE_OUTCOMES = (
    DEADLINE_MET,
    DEADLINE_DEGRADED,
    DEADLINE_SHED,
    DEADLINE_EXCEEDED,
)


@dataclass(frozen=True)
class LatencyBudget:
    """A per-query end-to-end latency budget, anchored at arrival.

    Attributes:
        deadline: the budget in seconds (relative to arrival).
        arrival: the query's arrival time on the simulated clock.
    """

    deadline: float
    arrival: float = 0.0

    def __post_init__(self) -> None:
        if not self.deadline > 0:
            raise InvalidParameterError(
                f"deadline must be > 0 seconds, got {self.deadline}"
            )
        if self.arrival < 0:
            raise InvalidParameterError(
                f"arrival must be >= 0, got {self.arrival}"
            )

    @property
    def expires_at(self) -> float:
        """Absolute time at which the budget runs out."""
        return self.arrival + self.deadline

    def remaining(self, now: float) -> float:
        """Seconds of budget left at *now* (negative once expired)."""
        return self.expires_at - now

    def expired(self, now: float) -> bool:
        """Whether the budget has run out at *now*.

        Exactly on the boundary counts as *not* expired — a query that
        finishes at precisely ``expires_at`` met its deadline.
        """
        return now > self.expires_at

    @classmethod
    def resolve(
        cls,
        deadline: Optional[float],
        default: Optional[float],
        arrival: float,
    ) -> Optional["LatencyBudget"]:
        """The effective budget: the spec's own deadline, else the default."""
        effective = deadline if deadline is not None else default
        if effective is None or math.isinf(effective):
            return None
        return cls(deadline=float(effective), arrival=float(arrival))


@dataclass(frozen=True)
class BrownoutConfig:
    """Thresholds of the overload brownout controller.

    Attributes:
        queue_wait_threshold: live queue-wait p95 (seconds) at or above
            which the controller escalates one level per tick.
        clear_fraction: hysteresis — de-escalation requires the p95 to
            drop below ``queue_wait_threshold * clear_fraction``.
        max_level: deepest brownout level (1..3).
    """

    queue_wait_threshold: float = 3600.0
    clear_fraction: float = 0.75
    max_level: int = 3

    def __post_init__(self) -> None:
        if not self.queue_wait_threshold > 0:
            raise InvalidParameterError(
                f"queue_wait_threshold must be > 0, "
                f"got {self.queue_wait_threshold}"
            )
        if not 0.0 < self.clear_fraction <= 1.0:
            raise InvalidParameterError(
                f"clear_fraction must be in (0, 1], got {self.clear_fraction}"
            )
        if not 1 <= self.max_level <= 3:
            raise InvalidParameterError(
                f"max_level must be in 1..3, got {self.max_level}"
            )

    @property
    def clear_threshold(self) -> float:
        """The p95 below which the controller starts restoring."""
        return self.queue_wait_threshold * self.clear_fraction


#: Brownout level at which new low-priority admissions are shed.
LEVEL_SHED_LOW_PRIORITY = 1
#: Brownout level at which rounds post at repetition 1.
LEVEL_REDUCE_REPETITION = 2
#: Brownout level at which hedged posting is disabled.
LEVEL_DISABLE_HEDGING = 3


class BrownoutController:
    """Progressive load shedding driven by the live queue-wait p95.

    The controller is deliberately clock- and RNG-free: :meth:`observe`
    is a pure function of the fed p95 and the current level, so replaying
    the same tick sequence after crash recovery reproduces the same
    transitions bit for bit.  The level itself is snapshotted via
    :meth:`state_dict` so recovery resumes mid-brownout.
    """

    def __init__(self, config: BrownoutConfig) -> None:
        self.config = config
        #: Current brownout level, 0 (off) .. ``config.max_level``.
        self.level = 0
        #: Total level transitions (either direction).
        self.transitions = 0

    # -- effects -------------------------------------------------------
    @property
    def shed_low_priority(self) -> bool:
        """Whether new low-priority admissions are currently shed."""
        return self.level >= LEVEL_SHED_LOW_PRIORITY

    @property
    def reduce_repetition(self) -> bool:
        """Whether rounds should post at repetition 1."""
        return self.level >= LEVEL_REDUCE_REPETITION

    @property
    def hedging_disabled(self) -> bool:
        """Whether hedged posting is currently suspended."""
        return self.level >= LEVEL_DISABLE_HEDGING

    # -- driving -------------------------------------------------------
    def observe(self, queue_wait_p95: float) -> Optional[Tuple[int, int]]:
        """Feed one tick's queue-wait p95.

        Returns ``(previous, new)`` on a level change, ``None`` otherwise.
        Escalates or restores at most one level per call so effects are
        applied (and journaled) in a strict, replayable order.
        """
        from repro.obs.stats import escalation_step

        config = self.config
        change = escalation_step(
            queue_wait_p95,
            self.level,
            threshold=config.queue_wait_threshold,
            clear_threshold=config.clear_threshold,
            max_level=config.max_level,
        )
        if change is None:
            return None
        self.level = change[1]
        self.transitions += 1
        return change

    # -- snapshot / restore -------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialize the mutable controller state for a journal snapshot."""
        return {"level": self.level, "transitions": self.transitions}

    def load_state_dict(self, payload: Dict[str, Any]) -> None:
        """Restore the counterpart of :meth:`state_dict`."""
        self.level = int(payload["level"])
        self.transitions = int(payload["transitions"])


def queue_wait_p95(waits: Sequence[float]) -> float:
    """Nearest-rank p95 of the live queue waits (0.0 when empty)."""
    from repro.obs.stats import percentile

    if not waits:
        return 0.0
    return float(percentile(waits, 95.0))


def backlog_queue_wait_p95(
    now: float, waiting: Sequence[float], n_backlog: int, arrival: Callable[[int], float]
) -> float:
    """:func:`queue_wait_p95` of the waiting queries and the due backlog.

    *waiting* are the waiting queries' arrival times; ``arrival(j)`` is the
    ``j``-th backlog arrival time, ascending in ``j``.  The due arrivals are
    the backlog's head, so their waits descend: the ``k`` largest waits (the
    nearest-rank p95 is the ``k``-th) are the ``i`` largest waiting ones and
    the first ``k - i`` due ones, for a split ``i`` a binary search finds.
    This reads ``O(log n)`` arrivals (one to size an all-due head), never
    the whole backlog.
    """
    from repro.obs.stats import nearest_rank

    n_due = n_backlog
    if n_due and arrival(n_due - 1) > now:
        n_due = _first_false(0, n_due - 1, lambda j: arrival(j) <= now)
    ranked = sorted((max(0.0, now - a) for a in waiting), reverse=True)
    n = len(ranked) + n_due
    if n == 0:
        return 0.0
    k = n - nearest_rank(n, 95.0) + 1
    split = _first_false(
        max(0, k - n_due), min(k, len(ranked)), lambda i: now - arrival(k - i - 1) < ranked[i]
    )
    top = ranked[split - 1] if split else math.inf
    return float(min(top, now - arrival(k - split - 1)) if split < k else top)


def _first_false(lo: int, hi: int, holds: Callable[[int], bool]) -> int:
    """First index of ``[lo, hi)`` where *holds*, true then false, fails."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo
