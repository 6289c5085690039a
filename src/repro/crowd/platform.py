"""A simulation of a crowdsourcing platform.

This is the substitute for Amazon Mechanical Turk: a batch of pairwise
questions is "posted", simulated workers discover it, pick up questions one
at a time, and submit (possibly erroneous) answers.  The batch's latency is
the time from posting until the last answer arrives — exactly the quantity
the paper measured on MTurk to estimate ``L(q)`` (Section 6.1).

The worker pool is an arrival-plus-service model: workers arrive staggered
(discovery delay + arrival spread), the next free worker takes the next
unanswered question, and a worker with a limited attention span is
replaced by a fresh arrival when the span runs out.  Service times are
drawn independently of which worker takes a question, so each worker's
answers form a chain, ``arrival + cumsum(service * speed)``, and handing
questions to the next free worker is the same as handing question *r* to
the *r*-th earliest slot start of all chains.  :func:`_schedule` draws
the chains as one matrix and sorts their starts once, rather than stepping
an event loop per posted copy; the assignment it gives is the event
loop's, equal in distribution (``tests/crowd/test_platform_kernel.py``).

A batch's answers are NumPy columns: one rank comparison and one Bernoulli
flip per posted copy.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

import numpy as np

from repro.crowd.error_models import ErrorModel, PerfectWorkers
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import PlatformError
from repro.obs.events import WorkerServiced
from repro.obs.metrics import get_registry
from repro.obs.tracer import current_tracer
from repro.types import Questions, as_pairs


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

    :class:`SimulatedPlatform` is the bare simulated implementation
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

        Draw order per batch: the worker schedule (:func:`_schedule`:
        arrival times, the attracted workers' speeds, then blocks of
        service times per worker chain, each followed by the discovery
        delays and speeds of the attention-span replacements it starts),
        then one uniform per copy for the error flips — skipped when every
        error probability is 0.
        """
        pairs = as_pairs(questions)
        a, b = pairs[:, 0], pairs[:, 1]
        if (a == b).any():
            raise PlatformError(f"cannot post a self-comparison of element {a[a == b][0]}")
        winners = self.truth.distinct_winners(pairs)
        n = len(pairs)
        self.stats.batches_posted += 1
        self.stats.questions_posted += n
        if not n:
            return BatchResult(pairs, a, np.empty(0), a, 0.0, 0, a)

        rng = self._rng
        first_id = self._next_worker_id
        local, times, busy, n_brought = _schedule(self.config, n, rng)
        self._next_worker_id += n_brought

        error = self.error_model.error_probabilities(self.truth, a, b)
        if error.any():
            winners = np.where(rng.random(n) < error, a + b - winners, winners)
        self.stats.total_busy_time += float(busy.sum())
        n_answers = np.bincount(local)
        n_workers = int(np.count_nonzero(n_answers))
        registry = get_registry()
        registry.counter("platform.batches_posted").inc()
        registry.counter("platform.questions_posted").inc(n)
        registry.counter("platform.workers_serviced").inc(n_workers)
        tracer = current_tracer()
        if tracer.enabled:
            busy_by_worker = np.bincount(local, weights=busy)
            for worker in np.flatnonzero(n_answers).tolist():
                tracer.emit(
                    WorkerServiced(
                        worker_id=first_id + worker,
                        n_answers=int(n_answers[worker]),
                        busy_time=float(busy_by_worker[worker]),
                    )
                )
        return BatchResult(
            questions=pairs,
            winners=winners,
            submit_times=times,
            worker_ids=local + first_id,
            completion_time=float(times.max()),
            n_workers=n_workers,
            rows=np.arange(n),
        )


def _schedule(
    config: WorkerPoolConfig, n: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Who answers each of *n* posted copies, and when.

    Returns ``(workers, submit_times, busy, n_brought)``: per copy the
    answering worker, numbered from 0 within the batch, its submit time
    and the seconds the worker spent on it; and how many workers the
    batch brought in, attracted or replacing one whose attention ran out,
    whether they answered or not.

    Each attracted worker starts a chain of answer slots: slot 0 starts at
    the worker's arrival and every slot starts when the previous one is
    submitted.  With an attention span the chain is a line of workers in
    generations of ``span`` slots, each new generation arriving one
    discovery delay after the last submit of the previous one, with a
    speed of its own.  Copies go to the earliest slot starts, ties to the
    lower chain: copy *r* takes the *r*-th smallest start of all chains.
    A first block of slots per chain is drawn at once (sized by
    :func:`_block_size`); when a chain's first undrawn slot would be among
    the *n* earliest, every chain gets another block, so the assignment
    is the one an unbounded draw gives.

    Draw order: arrival times, the first generation's speeds, then per
    block a ``(chains, block)`` matrix of service times followed, with an
    attention span, by the discovery delays and then the speeds of the
    generations that start in the block.
    """
    n_chains = config.attracted_workers(n)
    arrivals = config.sample_arrival_times(n_chains, rng)
    speeds = config.sample_worker_speed(rng, (n_chains, 1))
    span = config.attention_span
    block = _block_size(config, n, arrivals, speeds[:, 0].tolist())
    services = config.sample_service_times(n_chains * block, rng)
    services = services.reshape(n_chains, block)
    if span is not None:
        gaps = np.empty((n_chains, 0))
    while True:
        slots = services.shape[1]
        steps = np.empty((n_chains, slots + 1))
        steps[:, 0] = arrivals
        if span is None:
            busy_by_slot = services * speeds
            steps[:, 1:] = busy_by_slot
        else:
            # Generation g >= 1 starts at slot g * span, one discovery
            # delay after the previous generation's last submit.
            new = -(-slots // span) - 1 - gaps.shape[1]
            if new > 0:
                gaps = np.hstack(
                    [gaps, config.sample_discovery_time(rng, (n_chains, new))]
                )
                speeds = np.hstack(
                    [speeds, config.sample_worker_speed(rng, (n_chains, new))]
                )
            busy_by_slot = services * speeds[:, np.arange(slots) // span]
            steps[:, 1:] = busy_by_slot
            steps[:, span:slots:span] += gaps
        starts = steps.cumsum(axis=1)
        # Column ``slots`` is each chain's first undrawn start (without
        # the discovery delay a new generation would add): when none is
        # taken, no undrawn slot can start before the n-th copy's.
        starts = starts.ravel()
        taken = starts.argsort(kind="stable")[:n]
        chain, slot = np.divmod(taken, slots + 1)
        if slot.max() < slots:
            break
        width = min(block, n - slots)
        more = config.sample_service_times(n_chains * width, rng)
        services = np.hstack([services, more.reshape(n_chains, width)])
    # Flat indices: slot s of chain c is entry c * (slots + 1) + s of the
    # starts and c * slots + s of the busy times.
    busy = busy_by_slot.ravel()[taken - chain]
    submit_times = starts[taken] + busy
    if span is None:
        return chain, submit_times, busy, n_chains
    # Replacements are numbered after the attracted workers, in the order
    # of the copies that exhausted their predecessors' attention.
    exhausts = slot % span == span - 1
    rank = exhausts.cumsum() - 1
    row_of = np.empty(n_chains * (slots + 1), dtype=np.int64)
    row_of[taken] = np.arange(n)
    workers = chain.copy()
    later = slot >= span
    predecessor = row_of[taken[later] - slot[later] % span - 1]
    workers[later] = n_chains + rank[predecessor]
    return workers, submit_times, busy, n_chains + int(exhausts.sum())


def _block_size(
    config: WorkerPoolConfig, n: int, arrivals: List[float], speeds: List[float]
) -> int:
    """Slots per chain for the first block of :func:`_schedule`'s draws.

    The fluid model of the batch: chain *w* joins at ``arrivals[w]`` and
    then fills one slot per ``mean_service_time * speeds[w]`` seconds plus,
    with an attention span, its share of one discovery delay per
    generation.  The copies run out at the time ``T`` when the joined
    chains have filled *n* slots, so the busiest chain expects
    ``(T - arrival) * rate`` slots.  The block adds three standard
    deviations of a renewal count and one slot, and is never more than
    *n*, so a one-worker batch draws exactly *n* service times.
    """
    service = config.mean_service_time
    span = config.attention_span or 1
    gap = config.discovery_mean if config.attention_span else 0.0
    rates = [1.0 / (service * speed + gap / span) for speed in speeds]
    # With arrivals sorted, T is the least of the times at which the
    # first k chains alone would fill n slots.
    t_end = math.inf
    filled, joined = float(n), 0.0
    for arrival, rate in zip(arrivals, rates):
        filled += arrival * rate
        joined += rate
        fill_time = filled / joined
        if fill_time < t_end:
            t_end = fill_time
    expected = max([(t_end - arrival) * rate for arrival, rate in zip(arrivals, rates)])
    # A generation of ``span`` slots and its discovery delay is one
    # renewal: its squared coefficient of variation, times the slots it
    # holds, is the variance of a chain's slot count per expected slot.
    cycle_var = span * service**2 * math.expm1(config.service_sigma**2)
    cycle_var += gap**2 * math.expm1(config.discovery_sigma**2)
    variance = expected * span * cycle_var / (span * service + gap) ** 2
    return min(n, math.ceil(expected + 3.0 * math.sqrt(variance + 1.0)) + 1)
