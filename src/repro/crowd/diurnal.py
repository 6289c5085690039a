"""Time-of-day worker availability (a platform extension).

Section 2.1 notes that a latency function "can be estimated by the
crowdsourcing platform based on statistics about the workers in the
platform, their availability in different times during the day, and the
type of the task".  This module adds the availability dimension: a
:class:`DayNightCycle` scales worker discovery/arrival speed by the time of
day, and :class:`DiurnalPlatform` tracks a wall clock across successive
rounds so a MAX operation started in the evening slows down overnight.

Approximation: the activity level is sampled at the moment a batch is
posted (not continuously integrated over its lifetime); batches are much
shorter than the day cycle in all our workloads.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from repro.crowd.error_models import ErrorModel
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import BatchResult, SimulatedPlatform
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import InvalidParameterError
from repro.types import Question

SECONDS_PER_DAY = 24 * 3600.0


class DayNightCycle:
    """Worker activity as a function of the time of day.

    Activity is 1.0 inside the day window and ``night_activity`` outside,
    with the window expressed in hours since midnight.
    """

    def __init__(
        self,
        day_start_hour: float = 8.0,
        day_end_hour: float = 23.0,
        night_activity: float = 0.25,
    ) -> None:
        if not 0.0 <= day_start_hour < day_end_hour <= 24.0:
            raise InvalidParameterError(
                f"need 0 <= day_start < day_end <= 24, got "
                f"({day_start_hour}, {day_end_hour})"
            )
        if not 0.0 < night_activity <= 1.0:
            raise InvalidParameterError(
                f"night_activity must be in (0, 1], got {night_activity}"
            )
        self.day_start = day_start_hour * 3600.0
        self.day_end = day_end_hour * 3600.0
        self.night_activity = night_activity

    def activity(self, wall_time: float) -> float:
        """Activity multiplier at *wall_time* seconds since midnight day 0."""
        time_of_day = wall_time % SECONDS_PER_DAY
        if self.day_start <= time_of_day < self.day_end:
            return 1.0
        return self.night_activity


class DiurnalPlatform(SimulatedPlatform):
    """A platform whose worker supply follows a day/night cycle.

    The platform keeps a wall clock: every posted batch advances it by the
    batch's completion time (rounds of a MAX operation are sequential).
    Worker discovery and arrival delays stretch by ``1 / activity`` when
    the batch is posted at a low-activity time.
    """

    def __init__(
        self,
        truth: GroundTruth,
        rng: np.random.Generator,
        error_model: Optional[ErrorModel] = None,
        config: Optional[WorkerPoolConfig] = None,
        cycle: Optional[DayNightCycle] = None,
        start_hour: float = 9.0,
    ) -> None:
        super().__init__(truth, rng, error_model=error_model, config=config)
        if not 0.0 <= start_hour < 24.0:
            raise InvalidParameterError(
                f"start_hour must be in [0, 24), got {start_hour}"
            )
        self.cycle = cycle if cycle is not None else DayNightCycle()
        self.wall_clock = start_hour * 3600.0

    def post_batch(self, questions: Sequence[Question]) -> BatchResult:
        """Post a batch at the current wall-clock time.

        The returned completion time already includes the slowdown; the
        wall clock advances so the *next* round sees the later time of day.
        """
        activity = self.cycle.activity(self.wall_clock)
        base_config = self.config
        slowed = replace(
            base_config,
            max_workers=max(
                base_config.base_workers,
                int(round(base_config.max_workers * activity)),
            ),
            discovery_mean=base_config.discovery_mean / activity,
            arrival_spread=base_config.arrival_spread / activity,
        )
        self.config = slowed
        try:
            result = super().post_batch(questions)
        finally:
            self.config = base_config
        self.wall_clock += result.completion_time
        return result

    @property
    def hour_of_day(self) -> float:
        """Current wall-clock time as hours since midnight."""
        return (self.wall_clock % SECONDS_PER_DAY) / 3600.0
