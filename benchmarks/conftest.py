"""Fixtures for the benchmark harness.

Run with:  pytest benchmarks/ --benchmark-only

Every ``bench_*`` test also writes a ``BENCH_<name>.json`` regression
artifact (see ``_harness.emit_artifact``); ``tdp-repro bench-check``
compares a directory of them against ``benchmarks/baseline.json``.
"""

from __future__ import annotations

import gc
import time

import pytest

from _harness import emit_artifact, run_and_report


@pytest.fixture
def report(benchmark):
    """Benchmark a runner once and print its result tables."""

    def _report(runner):
        return run_and_report(benchmark, runner)

    return _report


@pytest.fixture(autouse=True)
def bench_artifact(request):
    """Time each bench and emit its ``BENCH_<name>.json`` artifact.

    Wall time covers the whole test body (the measured runner plus its
    setup), which is exactly what a CI wall-clock regression gate cares
    about.  Works under ``--benchmark-disable`` too — pytest-benchmark
    then runs the body once untimed, but this fixture still times it.
    The garbage the earlier benches left is collected before the timer
    starts, so no bench pays for another's collection.
    """
    from repro.obs.metrics import get_registry

    gc.collect()
    start = time.perf_counter()
    yield
    seconds = time.perf_counter() - start
    emit_artifact(
        request.node.name, seconds, metrics=get_registry().snapshot()
    )
