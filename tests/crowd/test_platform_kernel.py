"""The platform's slot-drawn kernel against the event-loop reference.

:func:`repro.crowd.platform._schedule` draws every worker chain's service
times as a matrix and hands copy *r* the *r*-th earliest slot start;
:func:`tests.crowd.heap_reference.heap_schedule` is the event loop it
replaced, one heap step per copy.  The two draw in different orders, so
they agree bit for bit only where the draws coincide:

* one worker: both draw the arrival, the speed and then exactly *n*
  service times, in one call;
* deterministic services and speeds (and no discovery delay between
  attention-span generations): both draw only the arrivals, so every
  time, worker id and replacement count must match, ties included, and
  however small the kernel's blocks are.

Everywhere else they must agree in distribution: the quantiles of the
completion time and of chosen submit times, over many seeded batches of
8 to 1800 copies, with and without an attention span, worker speed
heterogeneity and service-time noise.
"""

import numpy as np
import pytest

from repro.crowd import platform
from repro.crowd.error_models import UniformError
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform, _schedule
from repro.crowd.workers import WorkerPoolConfig
from tests.crowd.heap_reference import heap_schedule


def _assert_same(kernel, heap):
    for got, want in zip(kernel[:3], heap[:3]):
        np.testing.assert_array_equal(got, want)
    assert kernel[3] == heap[3]


class TestOneWorker:
    @pytest.mark.parametrize("n", [1, 7, 15, 300])
    @pytest.mark.parametrize(
        "config",
        [
            {},
            {"worker_speed_sigma": 0.8},
            {"service_sigma": 0.0},
        ],
        ids=["default", "speed-sigma", "fixed-service"],
    )
    def test_equals_the_heap_bit_for_bit(self, n, config):
        config = WorkerPoolConfig(max_workers=1, **config)
        kernel_rng, heap_rng = np.random.default_rng(7), np.random.default_rng(7)
        _assert_same(
            _schedule(config, n, kernel_rng), heap_schedule(config, n, heap_rng)
        )
        assert kernel_rng.bit_generator.state == heap_rng.bit_generator.state

    def test_posted_batches_equal_the_heap_platform(self, monkeypatch):
        """Whole batches, error flips (drawn after the schedule) included."""

        def run():
            rng = np.random.default_rng(3)
            config = WorkerPoolConfig(max_workers=1, worker_speed_sigma=0.5)
            crowd = SimulatedPlatform(
                GroundTruth.random(30, rng), rng, UniformError(0.2), config
            )
            return [crowd.post_batch([(0, 1), (2, 3)] * size) for size in (1, 9, 40)]

        kernel = run()
        monkeypatch.setattr(platform, "_schedule", heap_schedule)
        assert run() == kernel


DETERMINISTIC = {
    "spread": {},
    "simultaneous-arrivals": {"arrival_spread": 0.0},
    "span-1": {"attention_span": 1, "discovery_mean": 0.0},
    "span-4": {"attention_span": 4, "discovery_mean": 0.0},
}


class TestDeterministicServices:
    @pytest.mark.parametrize("n", [2, 17, 64, 250, 1800])
    @pytest.mark.parametrize("config", DETERMINISTIC.values(), ids=DETERMINISTIC)
    def test_equals_the_heap_bit_for_bit(self, n, config):
        config = WorkerPoolConfig(service_sigma=0.0, **config)
        for seed in range(3):
            _assert_same(
                _schedule(config, n, np.random.default_rng(seed)),
                heap_schedule(config, n, np.random.default_rng(seed)),
            )

    @pytest.mark.parametrize("block", [1, 2, 5])
    @pytest.mark.parametrize("config", DETERMINISTIC.values(), ids=DETERMINISTIC)
    def test_small_blocks_extend_to_the_same_schedule(
        self, monkeypatch, block, config
    ):
        """Chains that run out of drawn slots get more, one block at a time,
        until no undrawn slot could start before the last copy."""
        monkeypatch.setattr(platform, "_block_size", lambda *args: block)
        config = WorkerPoolConfig(service_sigma=0.0, **config)
        for n in (3, 40, 130):
            _assert_same(
                _schedule(config, n, np.random.default_rng(n)),
                heap_schedule(config, n, np.random.default_rng(n)),
            )


def _sample(schedule, config, n, batches, seed):
    """Per batch: completion time, first, middle and last submit time,
    distinct workers, total busy time and workers brought in."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(batches):
        workers, times, busy, brought = schedule(config, n, rng)
        rows.append(
            (
                times.max(),
                times[0],
                times[n // 2],
                times[-1],
                len(np.unique(workers)),
                busy.sum(),
                brought,
            )
        )
    return np.array(rows, dtype=float)


def _ks_distance(first, second):
    """The two-sample Kolmogorov-Smirnov statistic."""
    grid = np.concatenate([first, second])

    def cdf(sample):
        return np.searchsorted(np.sort(sample), grid, side="right") / len(sample)

    return np.abs(cdf(first) - cdf(second)).max()


CONFIGS = {
    "default": {},
    "span": {"attention_span": 3},
    "speed-sigma": {"worker_speed_sigma": 0.8},
    "fixed-service": {"service_sigma": 0.0},
    "span-speed-sigma": {"attention_span": 1, "worker_speed_sigma": 0.8},
}


class TestEqualInDistribution:
    @pytest.mark.parametrize("n", [8, 30, 150, 400, 1800])
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
    def test_quantiles_match_the_heap(self, n, config):
        config = WorkerPoolConfig(**config)
        batches = 300 if n <= 400 else 100
        kernel = _sample(_schedule, config, n, batches, seed=n)
        heap = _sample(heap_schedule, config, n, batches, seed=n + 1)
        # Kolmogorov-Smirnov at alpha = 1e-4 per statistic.
        bound = 2.23 * np.sqrt(2.0 / batches)
        for column in range(kernel.shape[1]):
            distance = _ks_distance(kernel[:, column], heap[:, column])
            assert distance < bound, (column, distance, bound)
        # The completion time's mean within four standard errors.
        spread = np.sqrt((kernel[:, 0].var() + heap[:, 0].var()) / batches)
        assert abs(kernel[:, 0].mean() - heap[:, 0].mean()) <= 4 * spread + 1e-9

    def test_forced_extensions_keep_the_distribution(self, monkeypatch):
        """Blocks of two slots make every batch extend many times, across
        attention-span generations and speed draws."""
        monkeypatch.setattr(platform, "_block_size", lambda *args: 2)
        config = WorkerPoolConfig(attention_span=3, worker_speed_sigma=0.8)
        kernel = _sample(_schedule, config, 60, 300, seed=11)
        heap = _sample(heap_schedule, config, 60, 300, seed=12)
        bound = 2.23 * np.sqrt(2.0 / 300)
        for column in range(kernel.shape[1]):
            assert _ks_distance(kernel[:, column], heap[:, column]) < bound
