"""Circuit breaker guarding the crowd platform against sustained outages.

The retry policy in :mod:`repro.crowd.rwl` treats each outage as an
independent accident: back off, re-post, hope.  During a *sustained*
platform outage (maintenance window, payment freeze) that strategy burns
every retry attempt of every round against a platform that cannot answer,
degrading queries that would have completed fine an hour later.  The
classic remedy is a circuit breaker:

* **CLOSED** — normal operation; every post goes through.  Consecutive
  outages are counted, and reaching ``failure_threshold`` trips the
  breaker open.
* **OPEN** — posts are blocked.  The scheduler *defers* its shared round
  instead of posting it, advancing the simulated clock to the end of the
  cooldown rather than paying per-retry backoff and detection time.
* **HALF_OPEN** — after ``cooldown_seconds`` the breaker admits one probe
  round.  ``probe_successes`` successful batches close the circuit; a
  single outage re-opens it for another cooldown.

The breaker is split across two layers on purpose.  The
:class:`~repro.crowd.rwl.ReliableWorkerLayer` sees individual batch
outcomes but has no clock, so it uses the time-free half of the API
(:meth:`CircuitBreaker.allow_post` / :meth:`~CircuitBreaker.record_outage`
/ :meth:`~CircuitBreaker.record_success`).  The scheduler owns simulated
time, so it drives the time-based transitions through
:meth:`CircuitBreaker.before_round` and stamps :attr:`opened_at` via
:meth:`~CircuitBreaker.note_time` once the round that tripped the breaker
resolves.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Optional

from repro.errors import InvalidParameterError
from repro.obs.events import CircuitClosed, CircuitOpened
from repro.obs.metrics import get_registry
from repro.obs.spans import current_span_id
from repro.obs.tracer import current_tracer

logger = logging.getLogger(__name__)


class BreakerState(str, Enum):
    """The three classic circuit-breaker states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class RoundDecision(str, Enum):
    """What the scheduler should do with its next shared round."""

    POST = "post"  #: circuit closed — post normally.
    PROBE = "probe"  #: half-open — post one probe sub-batch.
    DEFER = "defer"  #: open — skip the round, advance the clock.


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Trip and recovery parameters of the platform circuit breaker.

    Attributes:
        failure_threshold: consecutive outages that trip the breaker
            open (>= 1).
        cooldown_seconds: simulated seconds the circuit stays open
            before admitting a half-open probe (> 0).
        probe_successes: successful half-open batches required to close
            the circuit again (>= 1).
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 1800.0
    probe_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise InvalidParameterError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_seconds <= 0:
            raise InvalidParameterError(
                f"cooldown_seconds must be > 0, got {self.cooldown_seconds}"
            )
        if self.probe_successes < 1:
            raise InvalidParameterError(
                f"probe_successes must be >= 1, got {self.probe_successes}"
            )


class CircuitBreaker:
    """Closed/open/half-open breaker shared by the RWL and the scheduler.

    The breaker keeps no clock of its own: all timestamps are the
    caller-supplied simulated ``now``, which keeps state transitions
    deterministic and snapshot-friendly (the whole breaker serializes to
    a small dict via :meth:`state_dict`).
    """

    def __init__(self, config: Optional[CircuitBreakerConfig] = None) -> None:
        self.config = config if config is not None else CircuitBreakerConfig()
        self.state = BreakerState.CLOSED
        self.consecutive_outages = 0
        #: Simulated time the circuit opened; ``None`` until the scheduler
        #: stamps it via :meth:`note_time` (the trip happens inside the
        #: clock-less RWL).
        self.opened_at: Optional[float] = None
        self.half_open_successes = 0
        self.opens = 0
        self.closes = 0
        self.blocked_posts = 0

    # ------------------------------------------------------------------
    # Batch-outcome half (used by the RWL; no clock available)
    # ------------------------------------------------------------------
    def allow_post(self) -> bool:
        """Whether a batch may be posted right now.

        Half-open allows the probe through; open blocks (and counts the
        blocked attempt for observability).
        """
        if self.state is BreakerState.OPEN:
            self.blocked_posts += 1
            get_registry().counter("circuit.blocked_posts").inc()
            return False
        return True

    def record_outage(self) -> None:
        """Account one batch lost to an outage; may trip the breaker."""
        self.consecutive_outages += 1
        if self.state is BreakerState.HALF_OPEN:
            logger.info("half-open probe failed; circuit re-opens")
            self._open()
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_outages >= self.config.failure_threshold
        ):
            logger.info(
                "circuit opens after %d consecutive outage(s)",
                self.consecutive_outages,
            )
            self._open()

    def record_success(self) -> None:
        """Account one batch that completed; may close a half-open circuit."""
        self.consecutive_outages = 0
        if self.state is BreakerState.HALF_OPEN:
            self.half_open_successes += 1
            if self.half_open_successes >= self.config.probe_successes:
                self._close()

    # ------------------------------------------------------------------
    # Clock half (used by the scheduler)
    # ------------------------------------------------------------------
    def before_round(self, now: float) -> RoundDecision:
        """Decide the fate of a shared round starting at simulated *now*."""
        if self.state is BreakerState.CLOSED:
            return RoundDecision.POST
        if self.state is BreakerState.OPEN:
            if self.opened_at is None:
                self.opened_at = float(now)
            if now < self.opened_at + self.config.cooldown_seconds:
                return RoundDecision.DEFER
            self.state = BreakerState.HALF_OPEN
            self.half_open_successes = 0
            get_registry().counter("circuit.probes").inc()
            logger.info(
                "cooldown elapsed at t=%.1f; circuit half-open, probing", now
            )
        return RoundDecision.PROBE

    def defer_target(self, now: float) -> float:
        """Simulated time at which a deferred round should be retried."""
        if self.opened_at is None:
            self.opened_at = float(now)
        return self.opened_at + self.config.cooldown_seconds

    def note_time(self, now: float) -> None:
        """Stamp :attr:`opened_at` if the circuit opened clock-lessly."""
        if self.state is BreakerState.OPEN and self.opened_at is None:
            self.opened_at = float(now)

    # ------------------------------------------------------------------
    # Snapshot / restore (for the scheduler journal)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialize the mutable breaker state (config travels separately)."""
        return {
            "state": self.state.value,
            "consecutive_outages": self.consecutive_outages,
            "opened_at": (
                float(self.opened_at) if self.opened_at is not None else None
            ),
            "half_open_successes": self.half_open_successes,
            "opens": self.opens,
            "closes": self.closes,
            "blocked_posts": self.blocked_posts,
        }

    def load_state_dict(self, payload: Dict[str, Any]) -> None:
        """Restore the counterpart of :meth:`state_dict`."""
        self.state = BreakerState(payload["state"])
        self.consecutive_outages = int(payload["consecutive_outages"])
        opened_at = payload["opened_at"]
        self.opened_at = float(opened_at) if opened_at is not None else None
        self.half_open_successes = int(payload["half_open_successes"])
        self.opens = int(payload["opens"])
        self.closes = int(payload["closes"])
        self.blocked_posts = int(payload["blocked_posts"])

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _open(self) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = None
        self.half_open_successes = 0
        self.opens += 1
        get_registry().counter("circuit.opened").inc()
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit(
                CircuitOpened(
                    consecutive_outages=self.consecutive_outages,
                    span_id=current_span_id(),
                )
            )

    def _close(self) -> None:
        probes = self.half_open_successes
        self.state = BreakerState.CLOSED
        self.opened_at = None
        self.half_open_successes = 0
        self.consecutive_outages = 0
        self.closes += 1
        get_registry().counter("circuit.closed").inc()
        logger.info("circuit closed after %d successful probe(s)", probes)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit(
                CircuitClosed(
                    probe_successes=probes, span_id=current_span_id()
                )
            )
