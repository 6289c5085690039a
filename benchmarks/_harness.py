"""Shared helpers for the benchmark harness (imported by the bench files).

Each ``bench_fig*.py`` file regenerates one figure of the paper's evaluation
(Section 6): the benchmark measures how long the experiment takes, and the
resulting table — the same rows/series the paper plots — is printed so the
run doubles as a reproduction report.

Every bench additionally emits one ``BENCH_<name>.json`` regression
artifact (wall time, scale preset, compacted metrics snapshot, git sha)
into :data:`ARTIFACT_DIR` — the autouse fixture in ``conftest.py`` times
the test and calls :func:`emit_artifact`.  ``tdp-repro bench-check``
compares a directory of these artifacts against a committed baseline.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench import current_git_sha, make_artifact, write_artifact
from repro.experiments.config import scale_by_name
from repro.experiments.tables import ExperimentResult
from repro.obs.metrics import get_registry
from repro.obs.tracer import RecordingTracer, use_tracer
from repro.service import SchedulerJournal

#: Benchmarks default to the fast preset; set REPRO_BENCH_SCALE=full to
#: regenerate the figures at the paper's own workload sizes.
SCALE = scale_by_name(os.environ.get("REPRO_BENCH_SCALE", "small"))

#: Where ``BENCH_<name>.json`` artifacts land; override with
#: REPRO_BENCH_ARTIFACTS (CI points it at an upload directory).
ARTIFACT_DIR = Path(
    os.environ.get(
        "REPRO_BENCH_ARTIFACTS", str(Path(__file__).parent / "artifacts")
    )
)


def emit_artifact(
    name: str, seconds: float, metrics: Optional[Dict[str, Any]] = None
) -> Path:
    """Write one bench's regression artifact; returns its path."""
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)
    artifact = make_artifact(
        safe,
        seconds,
        SCALE.name,
        metrics=metrics,
        git_sha=current_git_sha(Path(__file__).parent.parent),
    )
    return write_artifact(artifact, ARTIFACT_DIR)


#: Registry counters that pin how much crowd work a service run did.
WORK_COUNTERS = (
    "service.rounds",
    "service.questions_posted",
    "platform.questions_posted",
    "rwl.batches",
)


def scheduler_work(scheduler) -> Tuple[Dict[str, float], List[Tuple[Any, Any]]]:
    """A finished run's deterministic work, to compare two runs exactly.

    Returns the :data:`WORK_COUNTERS` values and, per backend, the
    bit-generator states of its platform and RWL streams.  The counters
    come from the global registry: reset it before the run.
    """
    registry = get_registry()
    counters = {name: registry.counter(name).value for name in WORK_COUNTERS}
    streams = [
        (
            backend.platform._rng.bit_generator.state,
            backend.rwl._rng.bit_generator.state,
        )
        for backend in scheduler.router.backends
    ]
    return counters, streams


def run_footprint(
    build: Callable[[Any], Any],
) -> Tuple[int, Dict[str, Tuple[int, int]]]:
    """The events a service run emits and what it journals.

    *build(journal)* constructs the scheduler; the run is traced into
    memory and journaled into a temporary file.  Returns the number of
    events emitted and, per journal record type, ``(records, bytes)``.
    """
    tracer = RecordingTracer()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        with SchedulerJournal.create(path) as journal, use_tracer(tracer):
            build(journal).run()
        written: Dict[str, Tuple[int, int]] = {}
        with open(path, "rb") as handle:
            for line in handle:
                kind = json.loads(line)["record"]
                records, size = written.get(kind, (0, 0))
                written[kind] = (records + 1, size + len(line))
    return tracer.emitted, written


def run_and_report(benchmark, runner: Callable[[], List[ExperimentResult]]):
    """Benchmark *runner* once and print the tables it produced."""
    tables = benchmark.pedantic(runner, rounds=1, iterations=1)
    print()
    for table in tables:
        print(table.to_text())
        print()
    return tables
