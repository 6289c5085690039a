"""A discrete-event simulation of a crowdsourcing platform.

This is the substitute for Amazon Mechanical Turk: a batch of pairwise
questions is "posted", simulated workers discover it, pick up questions one
at a time, and submit (possibly erroneous) answers.  The batch's latency is
the time from posting until the last answer arrives — exactly the quantity
the paper measured on MTurk to estimate ``L(q)`` (Section 6.1).

The simulation is a simple event loop over worker availability: the next
free worker takes the next unanswered question.  Workers arrive staggered
(discovery delay + arrival spread), may have a limited attention span, and
are replaced by fresh arrivals when the queue would otherwise starve.

Only the timing is simulated event by event: a batch's answers are NumPy
columns, one rank comparison and one Bernoulli flip per posted copy.
"""

from __future__ import annotations

import heapq
import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from repro.crowd.error_models import ErrorModel, PerfectWorkers
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import PlatformError
from repro.obs.events import WorkerServiced
from repro.obs.metrics import get_registry
from repro.obs.tracer import current_tracer
from repro.types import Questions, as_pairs

logger = logging.getLogger(__name__)


def columns_equal(self, other: object) -> bool:
    """Field-by-field dataclass equality, arrays compared elementwise."""
    if type(other) is not type(self):
        return NotImplemented
    return all(
        np.array_equal(getattr(self, f.name), getattr(other, f.name))
        for f in fields(self)
    )


@dataclass(frozen=True, eq=False)
class BatchResult:
    """Outcome of posting one batch of questions, as columns.

    Row *i* is one submitted answer; repeats of a question and duplicate
    submissions are rows of their own.

    Attributes:
        questions: ``(n, 2)`` int64, the pair each answer resolves, as
            posted.
        winners: ``(n,)`` int64, the element the worker judged greater.
        submit_times: ``(n,)`` float64, seconds after the batch was posted.
        worker_ids: ``(n,)`` int64, the submitting simulated worker.
        completion_time: seconds until the last answer arrived — the
            measured round latency (``submit_times.max()``, 0 when empty).
        n_workers: number of distinct workers who submitted answers.
        rows: ``(n,)`` int64, the row of the posted batch each answer
            resolves (``questions == posted[rows]``).
    """

    questions: np.ndarray
    winners: np.ndarray
    submit_times: np.ndarray
    worker_ids: np.ndarray
    completion_time: float
    n_workers: int
    rows: np.ndarray

    @property
    def n_answers(self) -> int:
        return len(self.winners)

    __eq__ = columns_equal


@dataclass
class PlatformStats:
    """Cumulative usage statistics of a platform instance."""

    batches_posted: int = 0
    questions_posted: int = 0
    total_busy_time: float = 0.0


class Platform(ABC):
    """The posting interface every platform implementation provides.

    :class:`SimulatedPlatform` is the bare discrete-event implementation
    (and :class:`repro.crowd.diurnal.DiurnalPlatform` a subclass of it);
    :class:`repro.crowd.faults.FaultyPlatform` is a decorator wrapping any
    other platform.  Consumers — the Reliable Worker Layer above all —
    depend only on this interface, so decorators and new implementations
    slot in unchanged.
    """

    stats: PlatformStats

    @abstractmethod
    def post_batch(self, questions: Questions) -> BatchResult:
        """Post *questions* as one batch and block until it resolves.

        Raises:
            PlatformError: on invalid questions.
            PlatformOutageError: when a fault-injecting implementation
                loses the whole batch.
        """


class SimulatedPlatform(Platform):
    """The crowdsourcing platform substrate.

    Args:
        truth: the hidden true order workers judge against.
        error_model: per-answer error behaviour (default: perfect workers,
            matching the paper's error-free main setting).
        config: worker-pool dynamics.
        rng: randomness source.
    """

    def __init__(
        self,
        truth: GroundTruth,
        rng: np.random.Generator,
        error_model: Optional[ErrorModel] = None,
        config: Optional[WorkerPoolConfig] = None,
    ) -> None:
        self.truth = truth
        self.error_model = error_model if error_model is not None else PerfectWorkers()
        self.config = config if config is not None else WorkerPoolConfig()
        self._rng = rng
        self.stats = PlatformStats()
        self._next_worker_id = 0

    def post_batch(self, questions: Questions) -> BatchResult:
        """Post *questions* as one batch and simulate until all are answered.

        Duplicate questions are allowed (the Reliable Worker Layer posts
        repetitions for voting); each posted copy is answered independently.

        Draw order per batch: the arrival times, the attracted workers'
        speeds, one service time per copy, the attention-span
        replacements (inside the event loop), then one uniform per copy
        for the error flips — skipped when every error probability is 0.
        """
        pairs = as_pairs(questions)
        a, b = pairs[:, 0], pairs[:, 1]
        if (a == b).any():
            raise PlatformError(f"cannot post a self-comparison of element {a[a == b][0]}")
        winners = self.truth.winners(pairs)
        n = len(pairs)
        self.stats.batches_posted += 1
        self.stats.questions_posted += n
        if not n:
            return BatchResult(pairs, a, np.empty(0), a, 0.0, 0, a)

        config = self.config
        rng = self._rng
        first_id = self._next_worker_id
        n_workers = config.attracted_workers(n)
        arrivals = config.sample_arrival_times(n_workers, rng)
        speeds = [config.sample_worker_speed(rng) for _ in range(n_workers)]
        services = config.sample_service_times(n, rng)
        # Min-heap of (time the worker becomes free, worker), workers
        # numbered from 0 within the batch; sorted arrivals are a heap.
        free_at = [(arrival, worker) for worker, arrival in enumerate(arrivals)]
        answered = [0] * n_workers
        span = config.attention_span
        workers = [0] * n
        submit_times = [0.0] * n
        for row, service in enumerate(services.tolist()):
            time_free, worker = free_at[0]
            submit = time_free + service * speeds[worker]
            workers[row] = worker
            submit_times[row] = submit
            answered[worker] += 1
            if span is None or answered[worker] < span:
                heapq.heapreplace(free_at, (submit, worker))
                continue
            # The worker moves on; a fresh worker discovers the still-
            # open batch after a new discovery delay, keeping the queue
            # from starving.
            arrival = submit + config.sample_discovery_time(rng)
            heapq.heapreplace(free_at, (arrival, len(speeds)))
            logger.debug(
                "worker %d exhausted its attention span (%d answers); "
                "replacement %d arrives at t=%.1f s",
                first_id + worker,
                span,
                first_id + len(speeds),
                arrival,
            )
            speeds.append(config.sample_worker_speed(rng))
            answered.append(0)
        self._next_worker_id += len(speeds)

        error = self.error_model.error_probabilities(self.truth, a, b)
        if error.any():
            winners = np.where(rng.random(n) < error, a + b - winners, winners)
        local = np.array(workers, dtype=np.int64)
        busy = services * np.array(speeds)[local]
        self.stats.total_busy_time += float(busy.sum())
        n_answers = np.bincount(local)
        participants = np.flatnonzero(n_answers)
        registry = get_registry()
        registry.counter("platform.batches_posted").inc()
        registry.counter("platform.questions_posted").inc(n)
        registry.counter("platform.workers_serviced").inc(len(participants))
        tracer = current_tracer()
        if tracer.enabled:
            busy_by_worker = np.bincount(local, weights=busy)
            for worker in participants.tolist():
                tracer.emit(
                    WorkerServiced(
                        worker_id=first_id + worker,
                        n_answers=int(n_answers[worker]),
                        busy_time=float(busy_by_worker[worker]),
                    )
                )
        times = np.array(submit_times)
        return BatchResult(
            questions=pairs,
            winners=winners,
            submit_times=times,
            worker_ids=local + first_id,
            completion_time=float(times.max()),
            n_workers=len(participants),
            rows=np.arange(n),
        )
