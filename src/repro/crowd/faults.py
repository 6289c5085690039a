"""Seeded, composable fault injection for the simulated platform.

The paper's latency model assumes every posted batch completes and every
answer arrives; real platforms exhibit stragglers, abandoned HITs, lost
answers, duplicate submissions and the occasional whole-platform outage —
exactly the variability the paper's ``L(q)`` measurements smooth over
(Section 6.1).  This module makes that variability injectable:

* :class:`FaultProfile` — a frozen bundle of fault probabilities and
  magnitudes (all zero by default).  Named presets are available through
  :func:`fault_profile_by_name` for the CLI's ``--faults`` flag.
* :class:`FaultyPlatform` — wraps any :class:`~repro.crowd.platform.Platform`
  and perturbs each :meth:`post_batch` result according to the profile.
  Faults draw from a *dedicated* RNG, so a zero profile leaves the wrapped
  platform byte-identical to the bare one (same answers, completion time
  and stats — a regression test enforces this), and a seeded nonzero
  profile replays identically run over run.
* :class:`RetryPolicy` — deadline / max-attempts / exponential-backoff
  parameters consumed by :class:`repro.crowd.rwl.ReliableWorkerLayer` when
  it re-posts unanswered questions.

Fault taxonomy (applied in this fixed order for reproducibility):

1. **outage** — the whole batch is swallowed before any worker sees it;
   :class:`~repro.errors.PlatformOutageError` is raised carrying the
   simulated seconds the poster wasted before detecting the loss.
2. **abandonment** — a worker picks a question up and walks away
   mid-question; the answer is never submitted.
3. **drop** — the answer is submitted but lost in flight.
4. **straggler** — the answer arrives, but ``straggler_multiplier`` times
   later than it would have.
5. **duplicate** — the answer is submitted twice (the copy arrives up to
   ``duplicate_delay`` seconds later).

See ``docs/robustness.md`` for the full semantics and a worked example.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crowd.platform import BatchResult, Platform, PlatformStats, Questions
from repro.errors import InvalidParameterError, PlatformOutageError
from repro.obs.events import FaultInjected
from repro.obs.metrics import get_registry
from repro.obs.spans import current_span_id
from repro.obs.tracer import current_tracer

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FaultProfile:
    """Probabilities and magnitudes of the injectable fault families.

    All probabilities default to zero, so ``FaultProfile()`` is the
    identity profile.  Per-answer probabilities are evaluated
    independently per submitted answer; ``outage_prob`` is evaluated once
    per posted batch.

    Attributes:
        abandon_prob: per-answer probability the worker abandons the
            question mid-answer (the answer never arrives).
        drop_prob: per-answer probability the submitted answer is lost.
        straggler_prob: per-answer probability the answer is served by a
            straggler.
        straggler_multiplier: how many times later a straggler's answer
            arrives (> 1).
        duplicate_prob: per-answer probability of a duplicate submission.
        duplicate_delay: maximum seconds after the original at which the
            duplicate arrives (uniformly sampled).
        outage_prob: per-batch probability the platform swallows the batch.
        outage_detection_time: simulated seconds the poster waits before
            concluding a swallowed batch is lost.
        outage_window: optional ``(start, end)`` simulated-time interval
            during which the platform is *deterministically* down: every
            batch posted while the platform clock is in ``[start, end)``
            is swallowed, with no fault-RNG draw.  Models a sustained
            outage (maintenance window, payment freeze) rather than
            transient flakiness; the circuit breaker exists for exactly
            this shape.
    """

    abandon_prob: float = 0.0
    drop_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_multiplier: float = 4.0
    duplicate_prob: float = 0.0
    duplicate_delay: float = 60.0
    outage_prob: float = 0.0
    outage_detection_time: float = 600.0
    outage_window: Optional[Tuple[float, float]] = None

    def __post_init__(self) -> None:
        for name in (
            "abandon_prob",
            "drop_prob",
            "straggler_prob",
            "duplicate_prob",
            "outage_prob",
        ):
            probability = getattr(self, name)
            if not 0.0 <= probability <= 1.0:
                raise InvalidParameterError(
                    f"{name} must be in [0, 1], got {probability}"
                )
        if self.straggler_multiplier <= 1.0:
            raise InvalidParameterError(
                f"straggler_multiplier must be > 1, got "
                f"{self.straggler_multiplier}"
            )
        if self.duplicate_delay < 0:
            raise InvalidParameterError(
                f"duplicate_delay must be >= 0, got {self.duplicate_delay}"
            )
        if self.outage_detection_time < 0:
            raise InvalidParameterError(
                f"outage_detection_time must be >= 0, got "
                f"{self.outage_detection_time}"
            )
        if self.outage_window is not None:
            window = tuple(self.outage_window)
            if len(window) != 2:
                raise InvalidParameterError(
                    f"outage_window must be a (start, end) pair, got "
                    f"{self.outage_window!r}"
                )
            start, end = window
            if not 0 <= start < end:
                raise InvalidParameterError(
                    f"outage_window must satisfy 0 <= start < end, got "
                    f"({start}, {end})"
                )
            object.__setattr__(
                self, "outage_window", (float(start), float(end))
            )

    @property
    def is_zero(self) -> bool:
        """Whether no fault can ever fire under this profile."""
        return (
            self.abandon_prob == 0.0
            and self.drop_prob == 0.0
            and self.straggler_prob == 0.0
            and self.duplicate_prob == 0.0
            and self.outage_prob == 0.0
            and self.outage_window is None
        )

    @classmethod
    def none(cls) -> "FaultProfile":
        """The identity profile (no faults)."""
        return cls()


#: Named presets for the CLI and experiments; "none" is the identity.
_PROFILES: Dict[str, FaultProfile] = {
    "none": FaultProfile(),
    "mild": FaultProfile(
        abandon_prob=0.02,
        drop_prob=0.02,
        straggler_prob=0.05,
        straggler_multiplier=3.0,
        duplicate_prob=0.02,
    ),
    "lossy": FaultProfile(abandon_prob=0.05, drop_prob=0.15),
    "stragglers": FaultProfile(
        straggler_prob=0.25, straggler_multiplier=6.0
    ),
    "outages": FaultProfile(
        outage_prob=0.15,
        drop_prob=0.02,
        outage_detection_time=600.0,
    ),
    "sustained": FaultProfile(
        outage_window=(0.0, 3600.0),
        outage_detection_time=600.0,
    ),
    "severe": FaultProfile(
        abandon_prob=0.10,
        drop_prob=0.15,
        straggler_prob=0.20,
        straggler_multiplier=6.0,
        duplicate_prob=0.10,
        outage_prob=0.10,
    ),
}


def available_fault_profiles() -> List[str]:
    """Names accepted by :func:`fault_profile_by_name` (CLI ``--faults``)."""
    return sorted(_PROFILES)


def fault_profile_by_name(name: str) -> FaultProfile:
    """Look up a named fault profile.

    Raises:
        InvalidParameterError: for unknown names (the message lists the
            available ones).
    """
    try:
        return _PROFILES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown fault profile {name!r}; available: "
            f"{', '.join(available_fault_profiles())}"
        ) from None


@dataclass
class FaultStats:
    """Cumulative counts of the faults a :class:`FaultyPlatform` injected."""

    batches_seen: int = 0
    outages: int = 0
    abandoned: int = 0
    dropped: int = 0
    stragglers: int = 0
    duplicates: int = 0

    @property
    def total_faults(self) -> int:
        return (
            self.outages
            + self.abandoned
            + self.dropped
            + self.stragglers
            + self.duplicates
        )

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class FaultyPlatform(Platform):
    """A :class:`~repro.crowd.platform.Platform` decorator injecting faults.

    The wrapped platform runs untouched; faults are applied to its
    :class:`~repro.crowd.platform.BatchResult` afterwards, drawing only
    from the dedicated ``fault_rng``.  Two consequences, both load-bearing
    for the test suite:

    * with a zero :class:`FaultProfile` the wrapper is byte-identical to
      the bare platform (no fault RNG draw ever happens, and the inner
      platform consumes exactly the same random stream);
    * the same (inner seed, fault seed, profile) triple replays the exact
      same faults.

    Args:
        inner: the platform to wrap (usually a
            :class:`~repro.crowd.platform.SimulatedPlatform`).
        profile: which faults to inject, and how hard.
        fault_rng: randomness source for fault decisions only.
    """

    def __init__(
        self,
        inner: Platform,
        profile: FaultProfile,
        fault_rng: np.random.Generator,
    ) -> None:
        self.inner = inner
        self.profile = profile
        self._fault_rng = fault_rng
        self.fault_stats = FaultStats()
        #: Simulated "now" used to evaluate ``profile.outage_window``.
        #: The poster (e.g. the service scheduler) advances it; direct
        #: users of the platform can leave it at 0.
        self.clock: float = 0.0

    def set_clock(self, now: float) -> None:
        """Advance the simulated clock gating ``outage_window`` checks."""
        self.clock = float(now)

    @property
    def stats(self) -> PlatformStats:
        """The wrapped platform's cumulative usage statistics."""
        return self.inner.stats

    def post_batch(self, questions: Questions) -> BatchResult:
        """Post *questions* on the wrapped platform, then inject faults.

        Each per-answer fault family draws one uniform per surviving
        answer (in the module's fault order), and the duplicates one
        delay per copy, all from the fault RNG.

        Raises:
            PlatformOutageError: when an injected outage swallows the
                batch (the inner platform is never invoked, so no budget
                or RNG state is consumed).
        """
        profile = self.profile
        rng = self._fault_rng
        n_questions = len(questions)
        batch_index = self.fault_stats.batches_seen
        self.fault_stats.batches_seen += 1
        window = profile.outage_window
        if n_questions and window is not None and (
            window[0] <= self.clock < window[1]
        ):
            # Deterministic sustained outage: no fault-RNG draw, so the
            # random fault stream stays aligned with a window-free run.
            self.fault_stats.outages += 1
            self._record_fault("outage", n_questions, batch_index)
            logger.debug(
                "batch %d: sustained outage window swallowed %d question(s)",
                batch_index,
                n_questions,
            )
            raise PlatformOutageError(
                f"platform down for maintenance until t={window[1]:g}s; "
                f"batch of {n_questions} question(s) swallowed",
                wasted_seconds=profile.outage_detection_time,
            )
        if n_questions and profile.outage_prob > 0 and (
            rng.random() < profile.outage_prob
        ):
            self.fault_stats.outages += 1
            self._record_fault("outage", n_questions, batch_index)
            logger.debug(
                "batch %d: injected outage swallowed %d question(s)",
                batch_index,
                n_questions,
            )
            raise PlatformOutageError(
                f"injected platform outage swallowed a batch of "
                f"{n_questions} question(s)",
                wasted_seconds=profile.outage_detection_time,
            )
        result = self.inner.post_batch(questions)
        if profile.is_zero or not result.n_answers:
            return result
        keep = self._survivors(result.n_answers, profile.abandon_prob, rng)
        n_abandoned = result.n_answers - len(keep)
        kept = self._survivors(len(keep), profile.drop_prob, rng)
        n_dropped = len(keep) - len(kept)
        rows = keep[kept]
        times = result.submit_times[rows]
        n_stragglers = 0
        if profile.straggler_prob > 0 and len(rows):
            slow = rng.random(len(rows)) < profile.straggler_prob
            n_stragglers = int(slow.sum())
            times = np.where(slow, times * profile.straggler_multiplier, times)
        n_duplicates = 0
        if profile.duplicate_prob > 0 and len(rows):
            copied = np.flatnonzero(rng.random(len(rows)) < profile.duplicate_prob)
            n_duplicates = len(copied)
            delays = rng.uniform(0.0, profile.duplicate_delay, size=n_duplicates)
            times = np.concatenate((times, times[copied] + delays))
            rows = np.concatenate((rows, rows[copied]))
        self.fault_stats.abandoned += n_abandoned
        self.fault_stats.dropped += n_dropped
        self.fault_stats.stragglers += n_stragglers
        self.fault_stats.duplicates += n_duplicates
        for fault, count in (
            ("abandonment", n_abandoned),
            ("drop", n_dropped),
            ("straggler", n_stragglers),
            ("duplicate", n_duplicates),
        ):
            if count:
                self._record_fault(fault, count, batch_index)
        worker_ids = result.worker_ids[rows]
        return BatchResult(
            questions=result.questions[rows],
            winners=result.winners[rows],
            submit_times=times,
            worker_ids=worker_ids,
            completion_time=float(times.max()) if len(times) else 0.0,
            n_workers=len(np.unique(worker_ids)),
            rows=result.rows[rows],
        )

    @staticmethod
    def _survivors(
        n_answers: int, probability: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Indices of the answers kept when each is lost with *probability*."""
        if probability == 0 or not n_answers:
            return np.arange(n_answers)
        return np.flatnonzero(rng.random(n_answers) >= probability)

    def _record_fault(self, fault: str, count: int, batch_index: int) -> None:
        get_registry().counter(f"faults.{fault}").inc(count)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit(
                FaultInjected(
                    fault=fault,
                    n_affected=count,
                    batch_index=batch_index,
                    span_id=current_span_id(),
                )
            )


@dataclass(frozen=True)
class RetryPolicy:
    """When and how the RWL re-posts unanswered questions.

    A *retry* is scheduled whenever a platform batch comes back with some
    distinct questions unanswered (lost/abandoned answers) or the whole
    batch was swallowed by an outage.  The retry re-posts only the
    unanswered questions (times the RWL's repetition factor) after an
    exponential-backoff wait.

    Attributes:
        max_attempts: total posting attempts per round, the first included
            (>= 1; ``1`` disables retries).
        deadline: cap on the round's accumulated simulated latency; a
            retry that cannot *start* before the deadline is abandoned and
            the round degrades gracefully (``None`` = no deadline).
        base_backoff: seconds waited before the first retry.
        backoff_multiplier: exponential growth factor of the backoff.
        max_backoff: ceiling on a single backoff wait.
        jitter: +/- fraction of the backoff randomized per wait (0 = none).
    """

    max_attempts: int = 3
    deadline: Optional[float] = None
    base_backoff: float = 60.0
    backoff_multiplier: float = 2.0
    max_backoff: float = 900.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.deadline is not None and self.deadline < 0:
            raise InvalidParameterError(
                f"deadline must be >= 0, got {self.deadline}"
            )
        if self.base_backoff < 0:
            raise InvalidParameterError(
                f"base_backoff must be >= 0, got {self.base_backoff}"
            )
        if self.backoff_multiplier < 1:
            raise InvalidParameterError(
                f"backoff_multiplier must be >= 1, got "
                f"{self.backoff_multiplier}"
            )
        if self.max_backoff < self.base_backoff:
            raise InvalidParameterError(
                f"max_backoff {self.max_backoff} < base_backoff "
                f"{self.base_backoff}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise InvalidParameterError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )

    def backoff_seconds(
        self, retry_index: int, rng: np.random.Generator
    ) -> float:
        """Wait before the ``retry_index``-th retry (1-based), with jitter."""
        if retry_index < 1:
            raise InvalidParameterError(
                f"retry_index must be >= 1, got {retry_index}"
            )
        raw = min(
            self.max_backoff,
            self.base_backoff * self.backoff_multiplier ** (retry_index - 1),
        )
        if self.jitter == 0 or raw == 0:
            return raw
        # Clamp *after* jittering: max_backoff documents a hard ceiling,
        # so upward jitter must never push a wait past it.
        jittered = raw * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))
        return min(self.max_backoff, jittered)
