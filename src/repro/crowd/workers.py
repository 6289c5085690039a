"""Worker-pool model for the simulated crowdsourcing platform.

The model captures the MTurk dynamics Section 6.1 describes qualitatively:

* posting a batch has a large fixed overhead before the first worker
  discovers it (the delta ~ 239 s intercept of the paper's fit);
* larger batches attract more workers (the paper saw latency stay flat from
  320 to 1280 questions because "more workers are attracted as the batch
  size increases ... the increased parallelism compensates");
* there is a saturation point: once the batch outgrows the pool of
  interested workers, latency grows with batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class WorkerPoolConfig:
    """Tunable parameters of the simulated worker pool.

    Defaults are calibrated so that the emergent latency roughly matches the
    paper's measured MTurk behaviour for the car-comparison task (about
    3 seconds per answer, ~240 s of fixed overhead, a few dozen interested
    workers at most).

    Attributes:
        mean_service_time: average seconds a worker spends per question.
        service_sigma: lognormal sigma of the per-question service time.
        base_workers: workers interested regardless of batch size.
        questions_per_extra_worker: one additional worker is attracted for
            every this-many questions in the batch.
        max_workers: saturation cap — the total pool of interested workers.
        discovery_mean: mean seconds until the first worker discovers a
            freshly posted batch.
        discovery_sigma: lognormal sigma of the discovery delay.
        arrival_spread: seconds over which the remaining attracted workers
            trickle in after the first discovery.
        attention_span: questions a worker answers before moving on to other
            tasks (``None`` = stays until the batch is drained).
        worker_speed_sigma: heterogeneity of the workforce — each worker
            gets a persistent lognormal speed multiplier with this sigma
            (0 = all workers equally fast).  Fast workers naturally answer
            more questions of a batch.
    """

    mean_service_time: float = 3.0
    service_sigma: float = 0.4
    base_workers: int = 1
    questions_per_extra_worker: float = 16.0
    max_workers: int = 35
    discovery_mean: float = 200.0
    discovery_sigma: float = 0.35
    arrival_spread: float = 120.0
    attention_span: Optional[int] = None
    worker_speed_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_service_time <= 0:
            raise InvalidParameterError("mean_service_time must be > 0")
        if self.service_sigma < 0:
            raise InvalidParameterError("service_sigma must be >= 0")
        if self.base_workers < 1:
            raise InvalidParameterError("base_workers must be >= 1")
        if self.questions_per_extra_worker <= 0:
            raise InvalidParameterError("questions_per_extra_worker must be > 0")
        if self.max_workers < self.base_workers:
            raise InvalidParameterError("max_workers must be >= base_workers")
        if self.discovery_mean < 0 or self.arrival_spread < 0:
            raise InvalidParameterError("delays must be >= 0")
        if self.attention_span is not None and self.attention_span < 1:
            raise InvalidParameterError("attention_span must be >= 1 or None")
        if self.worker_speed_sigma < 0:
            raise InvalidParameterError("worker_speed_sigma must be >= 0")

    def attracted_workers(self, batch_size: int) -> int:
        """How many workers a batch of *batch_size* questions attracts."""
        if batch_size < 0:
            raise InvalidParameterError("batch_size must be >= 0")
        extra = int(batch_size / self.questions_per_extra_worker)
        return max(1, min(self.max_workers, self.base_workers + extra))

    def sample_discovery_time(
        self, rng: np.random.Generator, size: Optional[Tuple[int, ...]] = None
    ) -> Union[float, np.ndarray]:
        """Seconds until a worker finds the batch (lognormal).

        One float, or an array of *size* independent delays.
        """
        if self.discovery_mean == 0:
            return 0.0 if size is None else np.zeros(size)
        mu = math.log(self.discovery_mean) - self.discovery_sigma**2 / 2.0
        delays = rng.lognormal(mean=mu, sigma=self.discovery_sigma, size=size)
        return float(delays) if size is None else delays

    def sample_arrival_times(
        self, n_workers: int, rng: np.random.Generator
    ) -> List[float]:
        """Arrival times (seconds after posting) for *n_workers* workers.

        The first worker arrives after the discovery delay; the rest arrive
        uniformly over the following ``arrival_spread`` seconds.
        """
        if n_workers < 1:
            raise InvalidParameterError("n_workers must be >= 1")
        first = self.sample_discovery_time(rng)
        if n_workers == 1:
            return [first]
        later = first + rng.uniform(0.0, self.arrival_spread, size=n_workers - 1)
        later.sort()
        return [first, *later.tolist()]

    def sample_service_times(
        self, n_answers: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Seconds to answer each of *n_answers* questions (lognormal)."""
        if self.service_sigma == 0:
            return np.full(n_answers, self.mean_service_time)
        mu = math.log(self.mean_service_time) - self.service_sigma**2 / 2.0
        return rng.lognormal(mean=mu, sigma=self.service_sigma, size=n_answers)

    def sample_worker_speed(
        self, rng: np.random.Generator, size: Optional[Tuple[int, ...]] = None
    ) -> Union[float, np.ndarray]:
        """Persistent speed multiplier for one worker (mean 1.0).

        A worker's every answer takes ``multiplier`` times the sampled
        service time; values below 1 are fast workers.  One float, or an
        array of *size* independent multipliers.
        """
        if self.worker_speed_sigma == 0:
            return 1.0 if size is None else np.ones(size)
        mu = -self.worker_speed_sigma**2 / 2.0
        speeds = rng.lognormal(mean=mu, sigma=self.worker_speed_sigma, size=size)
        return float(speeds) if size is None else speeds
