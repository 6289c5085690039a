"""Measure one workload in this process; ``run.py`` starts it per workload.

Order of work: generate the input (untimed), drain a 10-query warm-up,
run untraced repeats until another would overrun ``--seconds`` (at least
``--repeat`` of them), each followed by extra constructions timed for
``setup_s``, check every output, then optionally drain once more under
:class:`LayerTracer`.  The untraced drains call the reference kernel
between steps every :data:`KERNEL_EVERY_S`, outside every timer.

``setup_s`` and ``throughput_qps`` are rescaled to the reference speed
(see ``reference.py``): each construction by the kernel calls made just
before and after it, the drain, whose steps are taken at their fastest,
by the kernel calls made between its steps, taken the same way.  The
values as timed are kept under ``raw``.

Each repeat builds a fresh scheduler, calls ``step()`` until it returns
``False``, timing every call that advanced ``scheduler.ticks``, and then
calls ``run()`` for the final ``ServiceReport``.  Only public API is used.

Prints one JSON object on stdout holding every raw measurement, which
``run.py`` turns into the report.  Start it through ``run.py``, which sets
``PYTHONHASHSEED`` and ``PYTHONPATH`` for it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import JournalCorruptError
from repro.obs.metrics import get_registry
from repro.obs.stats import percentile
from repro.service import (
    QuerySpec,
    QueryState,
    ServiceReport,
    read_journal,
)

from layers import LayerTracer
from reference import REFERENCE_S, time_kernel
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
WARMUP_QUERIES = 10
#: Constructions timed for ``setup_s`` after each repeat.
SETUP_PER_REPEAT = 3
#: Wall time between reference kernel calls in an untraced drain, so
#: that its samples spread over the run as the drain's steps do.
KERNEL_EVERY_S = 0.2


def digest(report: ServiceReport) -> str:
    """sha256 over the results, makespan and tick count of a run."""
    text = repr((report.results, report.makespan, report.ticks))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def failed_queries(report: ServiceReport) -> int:
    """Queries that did not complete, or were shed or ran past a deadline."""
    return sum(
        r.state is not QueryState.COMPLETED
        or r.deadline_outcome in ("shed", "exceeded")
        for r in report.results
    )


def check_outputs(
    workload: Workload,
    specs: Sequence[QuerySpec],
    report: ServiceReport,
    digests: Sequence[str],
    journal_results: Optional[int] = None,
) -> Dict[str, Optional[str]]:
    """The correctness gate: check name -> ``None`` if it passed, else why.

    *report* is one run's report, checked in full; *digests* holds one
    digest per run, the traced run included, and equal digests show the
    other runs produced the same report.  *journal_results* is the number
    of results in the final snapshot of a journaled workload's journal,
    ``None`` when the journal did not read back.
    """
    checks: Dict[str, Optional[str]] = {}
    submitted = [spec.query_id for spec in specs]
    returned = [
        r.spec.query_id
        for r in report.results
        if r.state in (QueryState.COMPLETED, QueryState.DEGRADED, QueryState.SHED)
    ]
    checks["terminal"] = (
        None
        if sorted(returned) == sorted(submitted) and len(report.results) == len(specs)
        else f"{len(specs)} queries submitted, {len(returned)} terminal results "
        f"for {len(set(returned) & set(submitted))} of them"
    )
    over = [r.spec.query_id for r in report.results if r.questions_posted > r.spec.budget]
    checks["budget"] = f"queries over budget: {over[:5]}" if over else None
    if workload.error_free:
        wrong = [r.spec.query_id for r in report.finished if not r.correct]
        checks["accuracy"] = (
            f"wrong MAX with error-free workers: {wrong[:5]}" if wrong else None
        )
    distinct = len(set(digests))
    checks["digest"] = (
        f"{distinct} different reports over {len(digests)} runs" if distinct != 1 else None
    )
    if workload.journaled:
        checks["journal"] = (
            None
            if journal_results == len(specs)
            else f"final snapshot holds {journal_results} of {len(specs)} results"
        )
    return checks


class Drain:
    """One repeat: construction, then the timed step loop and ``run()``."""

    def __init__(
        self,
        workload: Workload,
        specs: List[QuerySpec],
        seed: int,
        journal_dir: str,
        tracer: Optional[LayerTracer] = None,
        sample_kernel: bool = False,
    ) -> None:
        """With *sample_kernel*, the reference kernel is called once
        before the first step and then between steps every
        :data:`KERNEL_EVERY_S`, outside the drain's time."""
        clock = time.perf_counter_ns
        every_ns = int(KERNEL_EVERY_S * 1e9)
        scheduler = workload.build(specs, seed, journal_dir)
        if tracer is not None:
            tracer.reset()
        #: Wall time of every ``step()`` call, in order.
        self.step_ns: List[int] = []
        #: Indices into ``step_ns`` of the calls that ran a tick.
        self.tick_steps: List[int] = []
        #: Seconds of each reference kernel call, in order.
        self.kernel_s: List[float] = [time_kernel()] if sample_kernel else []
        ticks = 0
        kernel_ns = 0
        start = clock()
        next_kernel = start + every_ns
        while True:
            before = clock()
            more = scheduler.step()
            after = clock()
            self.step_ns.append(after - before)
            if scheduler.ticks != ticks:
                ticks = scheduler.ticks
                self.tick_steps.append(len(self.step_ns) - 1)
            if not more:
                break
            if sample_kernel and after >= next_kernel:
                self.kernel_s.append(time_kernel())
                next_kernel = clock()
                kernel_ns += next_kernel - after
                next_kernel += every_ns
        before = clock()
        self.report = scheduler.run()
        end = clock()
        self.run_ns = end - before
        self.drain_s = (end - start - kernel_ns) * 1e-9
        router = scheduler.router
        self.hedge_waste = router.hedge_waste if router is not None else 0
        self.journal_path: Optional[str] = None
        self.journal_bytes = 0
        if scheduler.journal is not None:
            scheduler.journal.close()
            self.journal_path = str(scheduler.journal.path)
            self.journal_bytes = os.path.getsize(self.journal_path)

    def tick_ms(self, step_ns: Sequence[int]) -> List[float]:
        return [step_ns[i] * 1e-6 for i in self.tick_steps]

    def summary(self) -> Dict[str, float]:
        """This repeat's own wall-clock numbers."""
        return {
            "drain_s": self.drain_s,
            "throughput_qps": self.report.n_queries / self.drain_s,
        }


def fastest(drains: Sequence[Drain]) -> Tuple[float, List[float], float]:
    """Drain seconds and tick milliseconds, each step at its fastest, and
    the reference kernel's seconds taken the same way.

    Repeats are bit-identical (the digest check proves it), so step *i*
    does the same work in every repeat and the spread between repeats is
    interference from outside the process.  Taking each step's fastest
    observation filters that out one step at a time, which a whole-drain
    median over a handful of repeats cannot.  Kernel call *j* comes at
    the same time into every repeat, so it is taken at its fastest over
    the repeats too, and the mean over *j* sees the host as the steps did.
    """
    steps = [min(times) for times in zip(*(d.step_ns for d in drains))]
    run_ns = min(d.run_ns for d in drains)
    kernel = [min(times) for times in zip(*(d.kernel_s for d in drains))]
    return (
        (sum(steps) + run_ns) * 1e-9,
        drains[0].tick_ms(steps),
        statistics.fmean(kernel),
    )


def _quiesce() -> None:
    """Start each timed section from the same heap and metric state."""
    get_registry().reset()
    gc.collect()


def _time_setup(
    workload: Workload, specs: List[QuerySpec], seed: int, journal_dir: str
) -> Tuple[float, float]:
    """One construction's seconds, and the mean of a kernel call just
    before it and one just after, which saw the same host speed."""
    _quiesce()
    before = time_kernel()
    start = time.perf_counter_ns()
    scheduler = workload.build(specs, seed, journal_dir)
    seconds = (time.perf_counter_ns() - start) * 1e-9
    after = time_kernel()
    if scheduler.journal is not None:
        scheduler.journal.close()
    return seconds, (before + after) / 2


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    min_repeats: int,
    trace: bool,
    smoke: bool,
) -> Dict[str, Any]:
    """Every raw measurement of one workload, as a JSON-ready dict."""
    specs = workload.specs(smoke=smoke)
    n = len(specs)
    with tempfile.TemporaryDirectory(prefix=".journal-", dir=HERE) as tmp:
        Drain(workload, specs[:WARMUP_QUERIES], seed, tmp)

        drains: List[Drain] = []
        repeats: List[Dict[str, float]] = []
        digests: List[str] = []
        setup_samples: List[Tuple[float, float]] = []
        checked_journal = os.path.join(tmp, "checked.jsonl")
        started = time.perf_counter()
        while True:
            _quiesce()
            drain = Drain(workload, specs, seed, tmp, sample_kernel=True)
            repeats.append(drain.summary())
            digests.append(digest(drain.report))
            if not drains:
                report = drain.report
                if drain.journal_path is not None:
                    os.replace(drain.journal_path, checked_journal)
            # Later reports are equal to the first (digests) and would only
            # add to peak RSS.
            drain.report = None
            drains.append(drain)
            # Spread over the run, and after the first repeat, so that no
            # sample pays for growing the heap to the workload's size: the
            # first construction in a process does.
            setup_samples.extend(
                _time_setup(workload, specs, seed, tmp)
                for _ in range(SETUP_PER_REPEAT)
            )
            elapsed = time.perf_counter() - started
            # Stop once another repeat of average length would overrun.
            if len(drains) >= min_repeats and elapsed / len(drains) * (
                len(drains) + 1
            ) > seconds:
                break
        measured_s = time.perf_counter() - started
        # Taken before the journal check, which parses the whole file.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        journal_results = None
        if workload.journaled:
            try:
                journal_results = len(
                    read_journal(checked_journal).last_snapshot["results"]
                )
            except JournalCorruptError:
                pass
        drain_s, tick_ms, kernel_s = fastest(drains)

        layers: Optional[Dict[str, float]] = None
        if trace:
            _quiesce()
            with LayerTracer() as tracer:
                traced = Drain(workload, specs, seed, tmp, tracer)
            layers = tracer.metrics(
                traced.report, traced.drain_s, traced.journal_bytes, traced.hedge_waste
            )
            untraced_s = statistics.median(r["drain_s"] for r in repeats)
            layers["service.scheduler.step_p50_ms"] = percentile(tick_ms, 50)
            layers["service.scheduler.step_p90_ms"] = percentile(tick_ms, 90)
            layers["trace.reference_ms"] = kernel_s * 1e3
            layers["trace.drain_s"] = traced.drain_s
            layers["trace.overhead_frac"] = traced.drain_s / untraced_s - 1
            layers["trace.accounted_frac"] = (
                sum(tracer.self_seconds().values()) / traced.drain_s
            )
            digests.append(digest(traced.report))

    checks = check_outputs(workload, specs, report, digests, journal_results)
    failed = failed_queries(report)
    # The host's slowness against the reference machine, taken as the
    # drain's steps are.
    slowdown = kernel_s / REFERENCE_S
    raw = {
        "setup_s": statistics.median(seconds for seconds, _ in setup_samples),
        "throughput_qps": n / drain_s,
    }
    metrics = {
        "setup_s": statistics.median(
            seconds / kernel * REFERENCE_S for seconds, kernel in setup_samples
        ),
        "throughput_qps": raw["throughput_qps"] * slowdown,
        "peak_rss_mb": peak_rss_mb,
        "sim_latency_p50_s": report.p50_latency,
        "sim_latency_p95_s": report.p95_latency,
        "questions_per_query": report.questions_posted / n,
        "accuracy": report.accuracy,
        "completed_frac": 1 - failed / n,
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "n_queries": n,
        "ticks": report.ticks,
        "measured_s": measured_s,
        "tick_samples": len(tick_ms),
        "setup_samples": setup_samples,
        "kernel_samples": [drain.kernel_s for drain in drains],
        "repeats": repeats,
        "raw": raw,
        "slowdown": slowdown,
        "metrics": metrics,
        "layers": layers,
        "checks": checks,
        "attempted": n * len(digests),
        "failed": failed * len(digests),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--repeat", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = measure(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        args.repeat,
        bool(args.trace),
        args.smoke,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
