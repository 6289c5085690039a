"""The service benchmark (``benchmarks/perf``) at smoke size.

One subprocess run of ``run.py --smoke`` covers the printed report, the
last-line JSON and the artifacts; the gate and the layer tracer are also
exercised in-process on a smoke drain.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PERF_DIR = ROOT / "benchmarks" / "perf"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(PERF_DIR))

from layers import LAYERS, LayerTracer  # noqa: E402
from measure import Drain, check_outputs, digest  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.bench import load_bench_times  # noqa: E402

ROW = re.compile(r"^  (\S+)\s+(\S+) (\S+)")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One traced smoke invocation over every workload."""
    tmp = tmp_path_factory.mktemp("perf")
    env = dict(os.environ, REPRO_BENCH_ARTIFACTS=str(tmp / "artifacts"))
    completed = subprocess.run(
        [
            sys.executable, str(PERF_DIR / "run.py"), "--smoke",
            "--seconds", "0", "--repeat", "2", "--trace", "1",
            "--json", str(tmp / "raw.json"),
        ],
        capture_output=True, text=True, timeout=120, cwd=ROOT, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout, tmp


def _blocks(stdout):
    """Workload name -> [(metric, unit)] rows of the printed report."""
    blocks = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = blocks.setdefault(line.split()[1], [])
        elif current is not None and (match := ROW.match(line)):
            current.append((match.group(1), match.group(3)))
    return blocks


def test_every_metric_is_printed_once_per_workload_with_its_unit(smoke_run):
    stdout, _ = smoke_run
    blocks = _blocks(stdout)
    assert sorted(blocks) == sorted(w["name"] for w in SPEC["workloads"])
    for workload, rows in blocks.items():
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            printed = [unit for name, unit in rows if name == metric["name"]]
            assert printed == [metric["unit"]], (workload, metric["name"])


def test_last_line_reports_the_per_layer_metrics(smoke_run):
    stdout, _ = smoke_run
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == 0
    expected = {
        f"{w['name']}/{m['name']}" for w in SPEC["workloads"] for m in SPEC["per_layer"]
    }
    assert set(result["metrics"]) == expected


def test_artifacts_read_back_through_bench_tooling(smoke_run):
    _, tmp = smoke_run
    times = load_bench_times(tmp / "artifacts")
    assert set(times) == {f"perf.{w['name']}" for w in SPEC["workloads"]}
    artifact = json.loads(
        (tmp / "artifacts" / "BENCH_perf.burst_3k.json").read_text(encoding="utf-8")
    )
    assert artifact["metrics"]["throughput_qps"]["type"] == "gauge"
    raw = json.loads((tmp / "raw.json").read_text(encoding="utf-8"))
    assert all("cv" in result and len(result["repeats"]) >= 2 for result in raw)


def test_workload_names_match_the_registry():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_benchmark_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".journal-*"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "burst_3k"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_wrappers_restore_the_original_class_attributes():
    originals = {
        (cls, method): cls.__dict__[method]
        for targets in LAYERS.values()
        for cls, method, _, _ in targets
    }
    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert all(
                cls.__dict__[method] is not original
                for (cls, method), original in originals.items()
            )
            raise RuntimeError("leave the block early")
    for (cls, method), original in originals.items():
        assert cls.__dict__[method] is original


@pytest.fixture(scope="module")
def traced_drain(tmp_path_factory):
    workload = WORKLOADS["fleet_journaled"]
    specs = workload.specs(smoke=True)
    tmp = str(tmp_path_factory.mktemp("journal"))
    untraced = Drain(workload, specs, 0, tmp)
    with LayerTracer() as tracer:
        traced = Drain(workload, specs, 0, tmp, tracer)
    return workload, specs, untraced, traced, tracer


def test_self_times_are_non_negative_and_fit_in_the_drain(traced_drain):
    _, _, _, traced, tracer = traced_drain
    seconds = tracer.self_seconds()
    assert all(value >= 0 for value in seconds.values())
    assert seconds["service.journal"] > 0 and seconds["crowd.multibackend.router"] > 0
    assert sum(seconds.values()) <= traced.drain_s
    metrics = tracer.metrics(
        traced.report, traced.drain_s, traced.journal_bytes, traced.hedge_waste
    )
    # The trace.* metrics and the step percentiles of the untraced repeats
    # are added by measure.py.
    untraced = {"service.scheduler.step_p50_ms", "service.scheduler.step_p90_ms"}
    assert set(metrics) == {
        m["name"] for m in SPEC["per_layer"] if not m["name"].startswith("trace.")
    } - untraced


def test_tracing_does_not_change_the_report(traced_drain):
    _, _, untraced, traced, _ = traced_drain
    assert digest(untraced.report) == digest(traced.report)


def _results_replaced(report, index, **changes):
    results = list(report.results)
    results[index] = dataclasses.replace(results[index], **changes)
    return dataclasses.replace(report, results=tuple(results))


def test_the_gate_passes_a_real_run(traced_drain):
    workload, specs, untraced, traced, _ = traced_drain
    checks = check_outputs(
        workload, specs, untraced.report,
        [digest(untraced.report), digest(traced.report)], len(specs),
    )
    assert checks == dict.fromkeys(
        ("terminal", "budget", "accuracy", "digest", "journal")
    )


def test_the_gate_fails_a_wrong_winner(traced_drain):
    workload, specs, untraced, _, _ = traced_drain
    result = untraced.report.results[3]
    wrong = _results_replaced(
        untraced.report, 3,
        winner=(result.winner + 1) % result.spec.n_elements, correct=False,
    )
    checks = check_outputs(workload, specs, wrong, [digest(wrong)], len(specs))
    assert checks["accuracy"] is not None
    assert [name for name, failure in checks.items() if failure] == ["accuracy"]


def test_the_gate_fails_lost_queries_overspent_budgets_and_drift(traced_drain):
    workload, specs, untraced, _, _ = traced_drain
    report = untraced.report
    lost = dataclasses.replace(report, results=report.results[1:])
    over = _results_replaced(
        report, 0, questions_posted=report.results[0].spec.budget + 1
    )
    one = digest(report)
    assert check_outputs(workload, specs, lost, [one], len(specs))["terminal"]
    assert check_outputs(workload, specs, over, [one], len(specs))["budget"]
    assert check_outputs(workload, specs, report, [one, "other"], len(specs))["digest"]
    assert check_outputs(workload, specs, report, [one], None)["journal"]
