"""Tests for the day/night worker-availability extension."""

import numpy as np
import pytest

from repro.crowd.diurnal import SECONDS_PER_DAY, DayNightCycle, DiurnalPlatform
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import InvalidParameterError


class TestDayNightCycle:
    def test_day_is_full_activity(self):
        cycle = DayNightCycle(day_start_hour=8, day_end_hour=22)
        assert cycle.activity(12 * 3600) == 1.0

    def test_night_is_reduced(self):
        cycle = DayNightCycle(
            day_start_hour=8, day_end_hour=22, night_activity=0.3
        )
        assert cycle.activity(3 * 3600) == 0.3
        assert cycle.activity(23 * 3600) == 0.3

    def test_wraps_across_days(self):
        cycle = DayNightCycle()
        noon_today = 12 * 3600
        noon_tomorrow = noon_today + SECONDS_PER_DAY
        assert cycle.activity(noon_today) == cycle.activity(noon_tomorrow)

    def test_boundaries(self):
        cycle = DayNightCycle(day_start_hour=8, day_end_hour=22)
        assert cycle.activity(8 * 3600) == 1.0  # start inclusive
        assert cycle.activity(22 * 3600) != 1.0  # end exclusive

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            DayNightCycle(day_start_hour=10, day_end_hour=9)
        with pytest.raises(InvalidParameterError):
            DayNightCycle(night_activity=0.0)
        with pytest.raises(InvalidParameterError):
            DayNightCycle(night_activity=1.5)


def make_platform(start_hour, seed=0, night_activity=0.2):
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(50, rng)
    return DiurnalPlatform(
        truth,
        rng,
        cycle=DayNightCycle(night_activity=night_activity),
        start_hour=start_hour,
    )


class TestDiurnalPlatform:
    def test_night_batches_slower_than_day(self):
        day_times = []
        night_times = []
        questions = [(i, i + 1) for i in range(0, 30, 2)]
        for seed in range(10):
            day_times.append(
                make_platform(12.0, seed).post_batch(questions).completion_time
            )
            night_times.append(
                make_platform(2.0, seed).post_batch(questions).completion_time
            )
        assert np.mean(night_times) > 2 * np.mean(day_times)

    def test_wall_clock_advances(self):
        platform = make_platform(9.0)
        start = platform.wall_clock
        result = platform.post_batch([(0, 1), (2, 3)])
        assert platform.wall_clock == start + result.completion_time

    def test_hour_of_day_wraps(self):
        platform = make_platform(23.0)
        platform.wall_clock += 2 * 3600  # move to 01:00
        assert platform.hour_of_day == pytest.approx(1.0)

    def test_config_restored_after_post(self):
        platform = make_platform(2.0)
        discovery_before = platform.config.discovery_mean
        platform.post_batch([(0, 1)])
        assert platform.config.discovery_mean == discovery_before

    @pytest.mark.parametrize("start_hour", [12.0, 2.0])
    def test_configured_speed_sigma_reaches_the_worker_draws(
        self, monkeypatch, start_hour
    ):
        """Day or night, the slowed config keeps every field it does not
        slow, worker heterogeneity included."""
        seen = []
        draw = WorkerPoolConfig.sample_worker_speed

        def spy(config, rng, *size):
            seen.append(config.worker_speed_sigma)
            return draw(config, rng, *size)

        monkeypatch.setattr(WorkerPoolConfig, "sample_worker_speed", spy)
        rng = np.random.default_rng(0)
        platform = DiurnalPlatform(
            GroundTruth.random(50, rng),
            rng,
            config=WorkerPoolConfig(worker_speed_sigma=0.8, attention_span=2),
            start_hour=start_hour,
        )
        platform.post_batch([(i, i + 1) for i in range(0, 30, 2)])
        assert seen and set(seen) == {0.8}

    def test_start_hour_validation(self):
        rng = np.random.default_rng(0)
        truth = GroundTruth.random(5, rng)
        with pytest.raises(InvalidParameterError):
            DiurnalPlatform(truth, rng, start_hour=25.0)

    def test_overnight_run_slows_later_rounds(self):
        """A multi-round operation started just before the night sees its
        later rounds slow down."""
        platform = make_platform(22.8, seed=4, night_activity=0.15)
        questions = [(i, i + 1) for i in range(0, 20, 2)]
        first = platform.post_batch(questions).completion_time
        # Push the clock into deep night regardless of the first batch.
        platform.wall_clock = 23.5 * 3600
        second = platform.post_batch(questions).completion_time
        assert second > first
