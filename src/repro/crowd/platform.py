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
"""

from __future__ import annotations

import heapq
import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crowd.error_models import ErrorModel, PerfectWorkers
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import PlatformError
from repro.obs.events import WorkerServiced
from repro.obs.metrics import get_registry
from repro.obs.tracer import current_tracer
from repro.types import Answer, Question

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WorkerAnswer:
    """One submitted answer, with submission metadata.

    Attributes:
        question: the canonical pair that was asked.
        answer: the worker's (possibly wrong) judgement.
        submit_time: seconds after the batch was posted.
        worker_id: identifier of the submitting simulated worker.
    """

    question: Question
    answer: Answer
    submit_time: float
    worker_id: int


@dataclass(frozen=True)
class BatchResult:
    """Outcome of posting one batch of questions.

    Attributes:
        worker_answers: one entry per posted question (repeats included).
        completion_time: seconds until the last answer arrived — the
            measured round latency.
        n_workers: number of distinct workers who submitted answers.
    """

    worker_answers: Tuple[WorkerAnswer, ...]
    completion_time: float
    n_workers: int

    @property
    def n_answers(self) -> int:
        return len(self.worker_answers)


@dataclass
class PlatformStats:
    """Cumulative usage statistics of a platform instance."""

    batches_posted: int = 0
    questions_posted: int = 0
    total_busy_time: float = field(default=0.0)


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
    def post_batch(self, questions: Sequence[Question]) -> BatchResult:
        """Post *questions* as one batch and block until it resolves.

        Raises:
            PlatformError: on invalid questions.
            PlatformOutageError: when a fault-injecting implementation
                loses the whole batch.
        """

    def measure_latency(self, batch_size: int, pairs: Sequence[Question]) -> float:
        """Convenience: post a batch and return only its completion time."""
        if len(pairs) != batch_size:
            raise PlatformError(
                f"expected {batch_size} questions, got {len(pairs)}"
            )
        return self.post_batch(pairs).completion_time


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

    def post_batch(self, questions: Sequence[Question]) -> BatchResult:
        """Post *questions* as one batch and simulate until all are answered.

        Duplicate questions are allowed (the Reliable Worker Layer posts
        repetitions for voting); each posted copy is answered independently.
        """
        for a, b in questions:
            if a == b:
                raise PlatformError(f"cannot post a self-comparison ({a}, {b})")
            # Membership checks happen inside the oracle on answer time.
        self.stats.batches_posted += 1
        self.stats.questions_posted += len(questions)
        if not questions:
            return BatchResult(worker_answers=(), completion_time=0.0, n_workers=0)

        config = self.config
        n_workers = config.attracted_workers(len(questions))
        arrivals = config.sample_arrival_times(n_workers, self._rng)
        # Min-heap of (time the worker becomes free, worker id, answered so
        # far).  Initially each worker frees up at their arrival time.
        free_at: List[Tuple[float, int, int]] = []
        worker_speed = {}
        for arrival in arrivals:
            worker_id = self._new_worker_id()
            worker_speed[worker_id] = config.sample_worker_speed(self._rng)
            heapq.heappush(free_at, (arrival, worker_id, 0))

        answers: List[WorkerAnswer] = []
        completion = 0.0
        # worker id -> [answers submitted, busy seconds] in this batch.
        participants: Dict[int, List[float]] = {}
        for question in questions:
            time_free, worker_id, answered = heapq.heappop(free_at)
            service = config.sample_service_time(self._rng) * worker_speed[
                worker_id
            ]
            submit = time_free + service
            self.stats.total_busy_time += service
            answer = self.error_model.worker_answer(
                self.truth, question[0], question[1], self._rng
            )
            answers.append(
                WorkerAnswer(
                    question=question,
                    answer=answer,
                    submit_time=submit,
                    worker_id=worker_id,
                )
            )
            usage = participants.setdefault(worker_id, [0, 0.0])
            usage[0] += 1
            usage[1] += service
            completion = max(completion, submit)
            answered += 1
            if config.attention_span is not None and answered >= config.attention_span:
                # The worker moves on; a fresh worker discovers the still-
                # open batch after a new discovery delay, keeping the queue
                # from starving.
                replacement_arrival = submit + config.sample_discovery_time(
                    self._rng
                )
                replacement_id = self._new_worker_id()
                worker_speed[replacement_id] = config.sample_worker_speed(
                    self._rng
                )
                heapq.heappush(free_at, (replacement_arrival, replacement_id, 0))
                logger.debug(
                    "worker %d exhausted its attention span (%d answers); "
                    "replacement %d arrives at t=%.1f s",
                    worker_id,
                    answered,
                    replacement_id,
                    replacement_arrival,
                )
            else:
                heapq.heappush(free_at, (submit, worker_id, answered))
        registry = get_registry()
        registry.counter("platform.batches_posted").inc()
        registry.counter("platform.questions_posted").inc(len(questions))
        registry.counter("platform.workers_serviced").inc(len(participants))
        tracer = current_tracer()
        if tracer.enabled:
            for worker_id, (n_answers, busy_time) in sorted(participants.items()):
                tracer.emit(
                    WorkerServiced(
                        worker_id=worker_id,
                        n_answers=int(n_answers),
                        busy_time=busy_time,
                    )
                )
        return BatchResult(
            worker_answers=tuple(answers),
            completion_time=completion,
            n_workers=len(participants),
        )

    def _new_worker_id(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        return worker_id
