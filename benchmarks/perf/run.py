#!/usr/bin/env python3
"""The crowd-MAX service benchmark.

Drives ``MaxScheduler`` over the workloads named in ``BENCHMARK.json`` and
prints, per workload, every end-to-end metric with its unit, the
correctness checks and, with ``--trace 1``, the per-layer split.  Run it
from the repository root::

    python3 benchmarks/perf/run.py [--workload NAME]... [--seed 0]
        [--seconds 25] [--repeat 3] [--trace 0|1] [--smoke] [--json OUT]

Each workload runs in a child process of its own (``measure.py``) with
``PYTHONHASHSEED=0``, one at a time.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the ``end_to_end`` ones of ``BENCHMARK.json`` with
``--trace 0`` and the ``per_layer`` ones with ``--trace 1``; with several
workloads each name is prefixed by ``<workload>/``.

Exit status: 0 when every check passed, 1 when a check failed or a
workload could not be measured, 2 when there is no source tree next to
the benchmark to measure.

With ``REPRO_BENCH_ARTIFACTS`` set, each workload also writes a
``BENCH_perf.<workload>.json`` artifact there, which ``tdp-repro
bench-check`` and ``bench-history`` read like any other bench artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
#: One workload at the default settings needs well under a quarter of this.
CHILD_TIMEOUT_S = 170


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Benchmark the crowd-MAX service on fixed workloads."
    )
    parser.add_argument(
        "--workload", action="append", metavar="NAME",
        help="workload to run (repeatable; default: all in BENCHMARK.json)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed of the simulated crowd (default 0)",
    )
    parser.add_argument(
        "--seconds", type=float, default=25.0,
        help="measuring time per workload; repeats stop when another "
        "would overrun it (default 25)",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="least number of untraced repeats (default 3)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=1,
        help="1 adds the traced pass and puts the per-layer metrics on the "
        "last line; 0 puts the end-to-end metrics there (default 1)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="2-3%% of each workload, for tests",
    )
    parser.add_argument(
        "--json", metavar="OUT",
        help="also write every per-repeat value and its cv to OUT",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    return args


def measure_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run ``measure.py`` for one workload and return its raw result."""
    pythonpath = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(
        os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(pythonpath)
    )
    command = [
        sys.executable, str(HERE / "measure.py"), name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--repeat", str(args.repeat),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(
            f"error: workload {name} did not finish in {CHILD_TIMEOUT_S} s"
        ) from None
    if done.returncode != 0:
        raise SystemExit(f"error: workload {name} failed (exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def wall_series(result: Dict[str, Any]) -> Dict[str, List[float]]:
    """Each wall-clock metric's samples within one invocation, as timed."""
    return {
        "setup_s": [seconds for seconds, _ in result["setup_samples"]],
        "throughput_qps": [repeat["throughput_qps"] for repeat in result["repeats"]],
    }


def cv(values: List[float]) -> float:
    """Coefficient of variation (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    return statistics.stdev(values) / statistics.mean(values)


def quartile_spread(values: List[float]) -> float:
    """Distance between the first and third quartile over the median (0
    for a single value)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def render(result: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """The human-readable report of one workload."""
    series = wall_series(result)
    lines = [
        f"== {result['workload']} (seed {result['seed']}): "
        f"{result['n_queries']} queries, {result['ticks']} ticks; "
        f"{len(result['repeats'])} repeats in {result['measured_s']:.1f} s, "
        f"{result['tick_samples']} tick samples; host "
        f"{result['slowdown']:.3f}x the reference kernel time"
    ]

    def row(name: str, value: float, unit: str, note: str = "") -> str:
        return f"  {name:<44} {value:>14.6g} {unit:<13} {note}".rstrip()

    for metric in spec["end_to_end"]:
        name = metric["name"]
        note = (
            f"as timed {result['raw'][name]:.6g}, cv {cv(series[name]):.1%}"
            if name in series else ""
        )
        lines.append(row(name, result["metrics"][name], metric["unit"], note))
    for name, values in series.items():
        bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)
        spread = quartile_spread(values)
        if spread > bound:
            lines.append(
                f"  warn {name}: quartile spread {spread:.1%} over "
                f"{len(values)} samples as timed exceeds its {bound:.0%} bound"
            )
    for check, failure in result["checks"].items():
        lines.append(f"  check.{check} {'ok' if failure is None else 'FAIL: ' + failure}")
    layers = result["layers"]
    if layers is not None:
        lines.append(f"  {'layer':<44} {'self_s':>14} share")
        for layer in sorted(
            {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]} - {"trace"},
            key=lambda layer: -layers[f"{layer}.share"],
        ):
            share = layers[f"{layer}.share"]
            lines.append(
                f"  {layer:<44} {share * layers['trace.drain_s']:>14.4f} {share:.1%}"
            )
        for metric in spec["per_layer"]:
            lines.append(row(metric["name"], layers[metric["name"]], metric["unit"]))
    return lines


def emit_artifact(result: Dict[str, Any], directory: str, smoke: bool) -> None:
    """``BENCH_perf.<workload>.json`` in the repo's bench-artifact format."""
    from repro.bench import current_git_sha, make_artifact, write_artifact

    values = dict(result["metrics"], **(result["layers"] or {}))
    artifact = make_artifact(
        f"perf.{result['workload']}",
        statistics.median(r["drain_s"] for r in result["repeats"]),
        "smoke" if smoke else "full",
        metrics={
            name: {"type": "gauge", "value": value} for name, value in values.items()
        },
        git_sha=current_git_sha(ROOT),
    )
    write_artifact(artifact, directory)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree to benchmark at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2

    results = [measure_workload(name, args) for name in names]
    for result in results:
        print("\n".join(render(result, spec)))
        result["cv"] = {name: cv(v) for name, v in wall_series(result).items()}

    artifacts = os.environ.get("REPRO_BENCH_ARTIFACTS")
    if artifacts:
        sys.path.insert(0, str(SRC))
        for result in results:
            emit_artifact(result, artifacts, args.smoke)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2), encoding="utf-8")

    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        source = result["layers"] if args.trace else result["metrics"]
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        for metric in listed:
            metrics[prefix + metric["name"]] = {
                "value": source[metric["name"]],
                "unit": metric["unit"],
            }
    correct = all(
        failure is None for result in results for failure in result["checks"].values()
    )
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
