"""Command-line interface: ``tdp-repro`` (or ``python -m repro``).

Subcommands:

* ``allocate`` — compute a budget allocation for given parameters.
* ``solve`` — run the crowdsourced MAX end to end on a synthetic collection.
* ``serve`` — run a concurrent multi-query workload on one shared platform
  and print the service report (scheduler, plan cache, admission control).
* ``chaos`` — kill a journaled ``serve`` run at chosen tick boundaries,
  recover each time and verify the reports are bit-identical.
* ``top`` — dashboard view of a journaled ``serve`` run: replay a
  finished journal, or ``--follow`` one that is still being written.
* ``metrics-export`` — render a saved metrics snapshot (from
  ``--metrics-json``) in the OpenMetrics/Prometheus text format.
* ``bench-check`` — compare benchmark ``BENCH_*.json`` artifacts against
  a baseline and flag wall-clock regressions.
* ``experiment`` — reproduce a paper figure (``fig11a`` .. ``fig15``).
* ``list`` — show the available allocators, selectors and experiments.

Observability (see ``docs/observability.md``): ``--verbose`` turns on
round-by-round ``repro`` logging; the ``solve``, ``simulate``, ``serve``
and ``experiment`` subcommands accept ``--trace PATH`` (stream a JSONL
structured-event trace to PATH as the run goes, so a killed run keeps a
readable prefix), ``--metrics`` (print a
metrics-registry snapshot after the run) and ``--metrics-json PATH``
(save that snapshot as JSON for ``metrics-export``).  ``serve`` further
accepts ``--dashboard`` (live terminal dashboard) and ``--metrics-out
PATH`` (atomically rewrite an OpenMetrics exposition every tick, the
Prometheus textfile-collector shape).

Robustness (see ``docs/robustness.md``): ``solve`` and ``simulate`` accept
``--platform`` (measure latency on the simulated crowd platform),
``--faults PROFILE`` (inject seeded platform faults), ``--retry ATTEMPTS``
and ``--retry-deadline SECONDS`` (re-post unanswered questions with
exponential backoff) and ``--repetition N`` (RWL voting factor).

Crash tolerance: ``serve`` accepts ``--journal PATH`` (write-ahead journal
with ``--snapshot-interval`` ticks between snapshots), ``--resume``
(recover a killed run from its journal and finish it) and ``--breaker``
(circuit breaker around the platform, tuned by ``--breaker-threshold``
and ``--breaker-cooldown``).  ``tdp-repro chaos`` runs the
kill/recover/verify protocol and exits nonzero on any divergence.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from repro.core.latency import LinearLatency, PowerLawLatency
from repro.core.registry import allocator_by_name, available_allocators
from repro.crowd.faults import (
    RetryPolicy,
    available_fault_profiles,
    fault_profile_by_name,
)
from repro.crowd.ground_truth import GroundTruth
from repro.engine.max_engine import MaxEngine, OracleAnswerSource
from repro.errors import InvalidParameterError, ReproError
from repro.experiments.config import scale_by_name
from repro.experiments.runner import available_experiments, run_experiment
from repro.selection.registry import available_selectors, selector_by_name
from repro.service.admission import OVERLOAD_POLICIES
from repro.service.policies import available_policies
from repro.service.workload import available_workloads


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdp-repro",
        description="Reproduction of the tDP crowdsourced-MAX paper "
        "(SIGMOD 2015)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="log round-by-round progress (the 'repro' logger at DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    allocate = sub.add_parser(
        "allocate", help="compute a budget allocation into rounds"
    )
    _add_workload_args(allocate)
    allocate.add_argument(
        "--allocator",
        default="tDP",
        help=f"one of {available_allocators()}",
    )
    allocate.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="switch objective: spend the fewest questions finishing within "
        "this many seconds (uses the tDP frontier; ignores --allocator)",
    )

    solve = sub.add_parser(
        "solve", help="run the crowdsourced MAX on a synthetic collection"
    )
    _add_workload_args(solve)
    solve.add_argument("--allocator", default="tDP")
    solve.add_argument(
        "--selector",
        default="Tournament",
        help=f"one of {available_selectors()}",
    )
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--adaptive",
        action="store_true",
        help="re-plan with tDP after every round instead of following a "
        "static allocation (ignores --allocator)",
    )
    _add_fault_args(solve)
    _add_obs_args(solve)

    simulate = sub.add_parser(
        "simulate",
        help="repeat the MAX operation many times and report aggregates",
    )
    _add_workload_args(simulate)
    simulate.add_argument("--allocator", default="tDP")
    simulate.add_argument("--selector", default="Tournament")
    simulate.add_argument("--runs", type=int, default=20)
    simulate.add_argument("--seed", type=int, default=0)
    _add_fault_args(simulate)
    _add_obs_args(simulate)

    serve = sub.add_parser(
        "serve",
        help="run a concurrent multi-query MAX workload on one shared "
        "platform and print the service report",
    )
    serve.add_argument(
        "--workload",
        default="steady",
        help=f"named workload preset: one of {available_workloads()}",
    )
    serve.add_argument(
        "--queries",
        type=int,
        default=None,
        help="override the preset's query count",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--scheduling",
        default="fair",
        metavar="POLICY",
        help=f"batching policy: one of {available_policies()}",
    )
    serve.add_argument(
        "--max-active",
        type=int,
        default=16,
        help="concurrent running sessions (admission bound)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="admitted-but-waiting queries allowed (admission bound)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=2000,
        help="distinct questions per shared round (backpressure cap)",
    )
    serve.add_argument(
        "--overload",
        default="defer",
        choices=OVERLOAD_POLICIES,
        help="shed (reject) or defer (queue in the backlog) on overload",
    )
    serve.add_argument(
        "--per-query",
        action="store_true",
        help="also print one report line per query",
    )
    serve.add_argument(
        "--delta", type=float, default=239.0, help="latency intercept (s)"
    )
    serve.add_argument(
        "--alpha", type=float, default=0.06, help="latency slope (s/question)"
    )
    serve.add_argument(
        "--exponent",
        type=float,
        default=1.0,
        help="latency exponent p in L(q) = delta + alpha * q^p",
    )
    serve.add_argument(
        "--repetition",
        type=int,
        default=1,
        help="RWL per-question repetition factor",
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="PROFILE",
        help=f"inject platform faults: one of {available_fault_profiles()}",
    )
    serve.add_argument(
        "--retry",
        type=int,
        default=None,
        metavar="ATTEMPTS",
        help="RWL re-post attempts per shared round (default: 3 when "
        "--faults is given, otherwise no retries)",
    )
    serve.add_argument(
        "--retry-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-round retry deadline in simulated seconds",
    )
    serve.add_argument(
        "--backends",
        default=None,
        metavar="SPEC",
        help="federate the workload across a fleet of crowd backends: a "
        "preset name (solo, duo, trio, outage-trio) or a JSON spec file "
        "(see docs/backends.md); mutually exclusive with --faults and "
        "--breaker",
    )
    serve.add_argument(
        "--routing",
        default="latency",
        metavar="POLICY",
        help="multi-backend routing policy: latency (default), "
        "least-loaded or weighted-price",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="enforce an end-to-end latency budget on every query that "
        "does not carry its own deadline: the scheduler replans, "
        "degrades or expires queries to honour it",
    )
    serve.add_argument(
        "--hedge",
        action="store_true",
        help="mirror predicted-slow sub-batches to the next-best backend "
        "(first answer wins, loser counted as hedge waste); requires "
        "--backends",
    )
    serve.add_argument(
        "--hedge-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="explicit hedge threshold in simulated seconds (default: "
        "derived online from the fleet's p95 sub-round latency)",
    )
    serve.add_argument(
        "--brownout",
        action="store_true",
        help="enable the overload brownout controller: progressively "
        "shed low-priority admissions, reduce repetition and disable "
        "hedging while queue-wait p95 stays over the threshold",
    )
    serve.add_argument(
        "--brownout-threshold",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="queue-wait p95 (simulated seconds) above which brownout "
        "escalates one level per tick (default: %(default)s)",
    )
    serve.add_argument(
        "--slo",
        action="store_true",
        help="arm the SLO engine: deadline/success objectives, "
        "multi-window burn-rate alerts, signal thresholds and a flight "
        "recorder (see tdp-repro health / diagnose)",
    )
    serve.add_argument(
        "--slo-bundle-dir",
        default=None,
        metavar="DIR",
        help="snapshot a flight-recorder debug bundle under DIR every "
        "time an alert fires (implies --slo)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="write a crash-recovery write-ahead journal (JSONL) to PATH",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="recover the scheduler from --journal PATH and finish the run "
        "(workload/fault flags are taken from the journal header)",
    )
    serve.add_argument(
        "--snapshot-interval",
        type=int,
        default=5,
        metavar="TICKS",
        help="ticks between journal snapshots (larger = smaller "
        "journal and less overhead, more replay on recovery; 1 = "
        "snapshot every tick)",
    )
    serve.add_argument(
        "--dashboard",
        action="store_true",
        help="render a terminal dashboard of per-tick scheduler state "
        "(redrawn in place on a TTY; final frame only when piped)",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="atomically rewrite PATH with an OpenMetrics exposition of "
        "the metrics registry after every tick",
    )
    _add_breaker_args(serve)
    _add_obs_args(serve)

    top = sub.add_parser(
        "top",
        help="dashboard view of a journaled serve run: replay a finished "
        "journal or --follow a live one",
    )
    top.add_argument(
        "journal", help="scheduler journal (JSONL) written by serve --journal"
    )
    top.add_argument(
        "--follow",
        action="store_true",
        help="poll the journal for new ticks until the run completes",
    )
    top.add_argument(
        "--poll",
        type=float,
        default=0.25,
        metavar="SECONDS",
        help="polling interval while following",
    )
    top.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop following after this long without a completion record",
    )

    health = sub.add_parser(
        "health",
        help="aggregate SLO health of a journaled serve --slo run "
        "(ok/degraded/critical with the alert history)",
    )
    health.add_argument(
        "journal", help="scheduler journal written by serve --slo --journal"
    )
    health.add_argument(
        "--fail-degraded",
        action="store_true",
        help="exit 1 unless the final health state is ok",
    )

    diagnose = sub.add_parser(
        "diagnose",
        help="rebuild a journaled run's flight recorder and snapshot a "
        "debug bundle (ring, state, metrics, manifest)",
    )
    diagnose.add_argument(
        "journal", help="scheduler journal written by serve --slo --journal"
    )
    diagnose.add_argument(
        "--output",
        required=True,
        metavar="DIR",
        help="directory to write the bundle into (created if missing)",
    )

    metrics_export = sub.add_parser(
        "metrics-export",
        help="render a saved metrics snapshot (--metrics-json) as "
        "OpenMetrics text",
    )
    metrics_export.add_argument(
        "snapshot", help="snapshot JSON written by --metrics-json"
    )
    metrics_export.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the exposition to PATH (atomically) instead of stdout",
    )

    bench_check = sub.add_parser(
        "bench-check",
        help="compare benchmark artifacts against a baseline and flag "
        "wall-clock regressions",
    )
    bench_check.add_argument(
        "baseline",
        help="combined baseline JSON or a directory of BENCH_*.json artifacts",
    )
    bench_check.add_argument(
        "current", help="same accepted shapes as the baseline"
    )
    bench_check.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative slowdown tolerated before a bench counts as "
        "regressed (0.25 = 25%% over baseline)",
    )
    bench_check.add_argument(
        "--warn-only",
        action="store_true",
        help="print the comparison but always exit 0 (CI smoke mode)",
    )
    bench_check.add_argument(
        "--filter",
        default=None,
        metavar="PAT,PAT",
        help="comma-separated fnmatch patterns; only matching benches "
        "(on both sides) are compared — lets CI gate hard on the "
        "deterministic solver benches while keeping the rest warn-only",
    )

    bench_history = sub.add_parser(
        "bench-history",
        help="append a benchmark run to the trend history and render "
        "per-bench sparklines against the baseline",
    )
    bench_history.add_argument(
        "current",
        help="combined JSON or a directory of BENCH_*.json artifacts",
    )
    bench_history.add_argument(
        "--history",
        default="benchmarks/history.jsonl",
        metavar="PATH",
        help="append-only JSONL trend log (created if missing)",
    )
    bench_history.add_argument(
        "--baseline",
        default="benchmarks/baseline.json",
        metavar="PATH",
        help="combined baseline for the delta column ('-' to skip)",
    )
    bench_history.add_argument(
        "--limit",
        type=int,
        default=20,
        help="history entries shown in each sparkline window",
    )
    bench_history.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative slowdown that flags the baseline delta with '!'",
    )
    bench_history.add_argument(
        "--no-append",
        action="store_true",
        help="render the existing history only; do not record this run",
    )

    explain = sub.add_parser(
        "explain",
        help="render per-query latency waterfalls (and causal span trees) "
        "from a JSONL trace written with --trace",
    )
    explain.add_argument(
        "query_id",
        nargs="?",
        type=int,
        default=None,
        help="query to explain (default: every query in the trace)",
    )
    explain.add_argument(
        "--trace",
        required=True,
        metavar="PATH",
        help="JSONL trace of a traced serve run",
    )
    explain.add_argument(
        "--tree",
        action="store_true",
        help="also print the causal span tree(s)",
    )

    profile = sub.add_parser(
        "profile",
        help="run the tDP solvers under the work-counter profiler and "
        "print what the dynamic programs actually did",
    )
    _add_workload_args(profile)
    profile.add_argument(
        "--solver",
        default="both",
        choices=("frontier", "memo", "both"),
        help="which MinLatency solver(s) to profile",
    )
    profile.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="solve this many times; the frontier solver plans through "
        "one tDP allocator, so its rows are built once",
    )
    _add_obs_args(profile)

    chaos = sub.add_parser(
        "chaos",
        help="crash-test the journaled scheduler: kill at tick boundaries, "
        "recover, verify the reports are bit-identical",
    )
    chaos.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="run a named scenario (e.g. multibackend-outage) instead of "
        "composing one from the flags below",
    )
    chaos.add_argument(
        "--workload",
        default="smoke",
        help=f"named workload preset: one of {available_workloads()}",
    )
    chaos.add_argument(
        "--queries",
        type=int,
        default=None,
        help="override the preset's query count",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--faults",
        default=None,
        metavar="PROFILE",
        help=f"inject platform faults: one of {available_fault_profiles()}",
    )
    chaos.add_argument(
        "--retry",
        type=int,
        default=None,
        metavar="ATTEMPTS",
        help="RWL re-post attempts per shared round (default: 3 when "
        "--faults is given, otherwise no retries)",
    )
    chaos.add_argument(
        "--snapshot-interval",
        type=int,
        default=1,
        metavar="TICKS",
        help="ticks between journal snapshots (named scenarios included)",
    )
    crash_sched = chaos.add_mutually_exclusive_group()
    crash_sched.add_argument(
        "--crash-points",
        default=None,
        metavar="A,B,C",
        help="explicit comma-separated step indices to kill at",
    )
    crash_sched.add_argument(
        "--crashes",
        type=int,
        default=None,
        metavar="N",
        help="N seeded-random crash points (default: 3)",
    )
    crash_sched.add_argument(
        "--sweep",
        action="store_true",
        help="kill at every tick boundary (exhaustive, slow)",
    )
    chaos.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="keep the per-crash journals here (default: a temp directory)",
    )
    _add_breaker_args(chaos)

    experiment = sub.add_parser(
        "experiment", help="reproduce a figure from the paper's evaluation"
    )
    experiment.add_argument(
        "name", help=f"one of {available_experiments()} or 'all'"
    )
    experiment.add_argument(
        "--scale",
        default="full",
        help="'full' mirrors the paper; 'small' finishes in seconds",
    )
    experiment.add_argument(
        "--format",
        dest="output_format",
        default="text",
        choices=("text", "markdown", "json", "csv"),
        help="output format for the result tables",
    )
    experiment.add_argument(
        "--plot",
        action="store_true",
        help="also render each table as an ASCII chart (text format only)",
    )
    experiment.add_argument(
        "--output",
        default=None,
        help="write the results to this file instead of stdout",
    )
    _add_obs_args(experiment)

    sub.add_parser("list", help="show available algorithms and experiments")
    return parser


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    """Robustness flags (see docs/robustness.md)."""
    parser.add_argument(
        "--platform",
        action="store_true",
        help="run on the simulated crowd platform with *measured* latency "
        "(the Section 6.2 mode) instead of the oracle latency model",
    )
    parser.add_argument(
        "--repetition",
        type=int,
        default=1,
        help="RWL per-question repetition factor (platform mode only)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PROFILE",
        help=f"inject platform faults: one of "
        f"{available_fault_profiles()} (implies --platform)",
    )
    parser.add_argument(
        "--retry",
        type=int,
        default=None,
        metavar="ATTEMPTS",
        help="re-post unanswered questions with exponential backoff, up to "
        "ATTEMPTS total posting attempts per round (default: 3 when "
        "--faults is given, otherwise no retries)",
    )
    parser.add_argument(
        "--retry-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-round deadline in simulated seconds; a retry that cannot "
        "start before it is abandoned and the round degrades gracefully",
    )


def _add_breaker_args(parser: argparse.ArgumentParser) -> None:
    """Circuit-breaker flags (see docs/robustness.md)."""
    parser.add_argument(
        "--breaker",
        action="store_true",
        help="wrap the platform in a circuit breaker: defer rounds while "
        "the platform looks dead instead of burning retries",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        metavar="N",
        help="consecutive outages that open the circuit",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=1800.0,
        metavar="SECONDS",
        help="simulated seconds to wait while open before probing",
    )


def _breaker_config(args: argparse.Namespace):
    """Resolve an optional CircuitBreakerConfig from the flags."""
    if not getattr(args, "breaker", False):
        return None
    from repro.crowd.breaker import CircuitBreakerConfig

    return CircuitBreakerConfig(
        failure_threshold=args.breaker_threshold,
        cooldown_seconds=args.breaker_cooldown,
    )


def _retry_policy(args: argparse.Namespace) -> Optional[RetryPolicy]:
    """Resolve ``--retry``/``--retry-deadline`` into an optional RetryPolicy.

    ``--retry`` defaults to 3 attempts under ``--faults``; one attempt
    means no retries (``None``).
    """
    attempts = args.retry
    if attempts is not None and attempts < 1:
        raise InvalidParameterError(
            f"--retry must be >= 1 attempt, got {attempts}"
        )
    if attempts is None and args.faults is not None:
        attempts = 3
    if attempts is None or attempts == 1:
        return None
    return RetryPolicy(
        max_attempts=attempts, deadline=getattr(args, "retry_deadline", None)
    )


def _fault_options(args: argparse.Namespace):
    """Resolve (platform_mode, fault_profile, retry_policy) from the flags."""
    fault_profile = (
        fault_profile_by_name(args.faults) if args.faults is not None else None
    )
    retry_policy = _retry_policy(args)
    platform_mode = (
        args.platform or fault_profile is not None or retry_policy is not None
    )
    return platform_mode, fault_profile, retry_policy


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="stream a JSONL structured-event trace of the run to PATH "
        "(a killed run keeps a readable prefix)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print a metrics-registry snapshot after the run",
    )
    parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="save the metrics snapshot as JSON (input to metrics-export)",
    )


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--elements", type=int, default=500, help="collection size c0"
    )
    parser.add_argument(
        "--budget", type=int, default=4000, help="total question budget b"
    )
    parser.add_argument(
        "--delta", type=float, default=239.0, help="latency intercept (s)"
    )
    parser.add_argument(
        "--alpha", type=float, default=0.06, help="latency slope (s/question)"
    )
    parser.add_argument(
        "--exponent",
        type=float,
        default=1.0,
        help="latency exponent p in L(q) = delta + alpha * q^p",
    )


def _latency_from_args(args: argparse.Namespace):
    if args.exponent == 1.0:
        return LinearLatency(args.delta, args.alpha)
    return PowerLawLatency(args.delta, args.alpha, args.exponent)


def _cmd_allocate(args: argparse.Namespace) -> int:
    from repro.core.allocation import Allocation
    from repro.core.tdp import solve_min_cost

    latency = _latency_from_args(args)
    if args.deadline is not None:
        plan = solve_min_cost(
            args.elements, args.deadline, latency, budget=args.budget
        )
        allocation = Allocation.from_element_sequence(
            plan.sequence, "tDP (min-cost)"
        )
        print(f"deadline:           {args.deadline:g} s")
    else:
        allocator = allocator_by_name(args.allocator)
        allocation = allocator.allocate(args.elements, args.budget, latency)
    print(f"allocator:          {allocation.allocator_name}")
    print(f"round budgets:      {allocation.round_budgets}")
    if allocation.element_sequence is not None:
        print(f"candidate sequence: {allocation.element_sequence}")
    print(f"questions used:     {allocation.total_questions} / {args.budget}")
    print(f"predicted latency:  {allocation.predicted_latency(latency):.1f} s")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.engine.adaptive import AdaptiveMaxEngine

    latency = _latency_from_args(args)
    selector = selector_by_name(args.selector)
    platform_mode, fault_profile, retry_policy = _fault_options(args)
    if platform_mode:
        from repro.engine.simulation import run_once_on_platform

        result = run_once_on_platform(
            args.elements,
            args.budget,
            allocator_by_name(args.allocator),
            selector,
            latency,
            seed=args.seed,
            repetition=args.repetition,
            fault_profile=fault_profile,
            retry_policy=retry_policy,
            adaptive=args.adaptive,
        )
        profile_name = args.faults if args.faults is not None else "none"
        retries = (
            f"retry x{retry_policy.max_attempts}" if retry_policy else "no retries"
        )
        print(
            f"platform mode: measured latency, faults={profile_name}, "
            f"{retries}, repetition {args.repetition}"
        )
        for record in result.records:
            print(
                f"  round {record.round_index}: {record.candidates_before} -> "
                f"{record.candidates_after} candidates, "
                f"{record.questions_posted} questions, {record.latency:.1f} s"
            )
        print(result.summary())
        return 0
    rng = np.random.default_rng(args.seed)
    truth = GroundTruth.random(args.elements, rng)
    if args.adaptive:
        engine = AdaptiveMaxEngine(
            selector, OracleAnswerSource(truth, latency), latency, rng
        )
        result = engine.run(truth, args.budget)
        print("allocation: adaptive (re-planned every round)")
    else:
        allocator = allocator_by_name(args.allocator)
        allocation = allocator.allocate(args.elements, args.budget, latency)
        engine = MaxEngine(selector, OracleAnswerSource(truth, latency), rng)
        result = engine.run(truth, allocation)
        print(f"allocation: {allocation.round_budgets}")
    for record in result.records:
        print(
            f"  round {record.round_index}: {record.candidates_before} -> "
            f"{record.candidates_after} candidates, "
            f"{record.questions_posted} questions, {record.latency:.1f} s"
        )
    print(result.summary())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.engine.simulation import (
        AggregateStats,
        aggregate,
        run_many_on_platform,
    )

    latency = _latency_from_args(args)
    platform_mode, fault_profile, retry_policy = _fault_options(args)
    if platform_mode:
        stats = AggregateStats.from_results(
            run_many_on_platform(
                args.elements,
                args.budget,
                allocator_by_name(args.allocator),
                selector_by_name(args.selector),
                latency,
                n_runs=args.runs,
                seed=args.seed,
                repetition=args.repetition,
                fault_profile=fault_profile,
                retry_policy=retry_policy,
            )
        )
        profile_name = args.faults if args.faults is not None else "none"
        print(
            f"platform mode: measured latency, faults={profile_name}, "
            f"retries={retry_policy.max_attempts if retry_policy else 1}"
        )
    else:
        stats = aggregate(
            n_elements=args.elements,
            budget=args.budget,
            allocator=allocator_by_name(args.allocator),
            selector=selector_by_name(args.selector),
            latency=latency,
            n_runs=args.runs,
            seed=args.seed,
        )
    print(f"configuration:        {args.allocator} + {args.selector}, "
          f"c0={args.elements}, b={args.budget}")
    print(f"runs:                 {stats.n_runs}")
    print(f"mean latency:         {stats.mean_latency:.1f} s "
          f"(std {stats.std_latency:.1f})")
    print(f"singleton rate:       {100 * stats.singleton_rate:.0f}%")
    print(f"accuracy:             {100 * stats.accuracy:.0f}%")
    print(f"mean questions used:  {stats.mean_questions:.1f}")
    print(f"mean rounds executed: {stats.mean_rounds:.1f}")
    return 0


def _serve_tick_hooks(args: argparse.Namespace):
    """The ``serve`` per-tick callback: dashboard and/or OpenMetrics file.

    Returns ``(on_tick, renderer)`` — both ``None`` when neither flag is
    given, so the plain path stays callback-free.
    """
    callbacks = []
    renderer = None
    if getattr(args, "dashboard", False):
        from repro.obs.dashboard import DashboardRenderer

        renderer = DashboardRenderer()
        callbacks.append(renderer.update)
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        from repro.obs.metrics import get_registry
        from repro.obs.openmetrics import write_openmetrics

        callbacks.append(
            lambda _sample: write_openmetrics(
                get_registry().snapshot(), metrics_out
            )
        )
    if not callbacks:
        return None, None

    def on_tick(sample) -> None:
        for callback in callbacks:
            callback(sample)

    return on_tick, renderer


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        MaxScheduler,
        ServiceConfig,
        generate_workload,
        workload_by_name,
    )

    on_tick, renderer = _serve_tick_hooks(args)

    if args.resume:
        from repro.service import recover_scheduler

        if args.journal is None:
            raise InvalidParameterError("--resume requires --journal PATH")
        scheduler = recover_scheduler(args.journal)
        resumed_at = scheduler.ticks
        report = scheduler.run(on_tick=on_tick)
        if scheduler.journal is not None:
            scheduler.journal.close()
        if renderer is not None:
            renderer.finish()
        print(f"resumed {args.journal} from tick {resumed_at}")
        print(report.render(per_query=args.per_query))
        return 0

    from repro.crowd.multibackend import resolve_backends, resolve_fleet

    latency = _latency_from_args(args)
    fault_profile = (
        fault_profile_by_name(args.faults) if args.faults is not None else None
    )
    # Checked here, before --journal truncates its file.
    fleet = resolve_fleet(
        resolve_backends(args.backends) if args.backends is not None else None,
        latency=latency,
        fault_profile=fault_profile,
        breaker_config=_breaker_config(args),
    )
    retry_policy = _retry_policy(args)
    specs = generate_workload(
        workload_by_name(args.workload), seed=args.seed, n_queries=args.queries
    )
    hedge_config = None
    if args.hedge or args.hedge_after is not None:
        from repro.crowd.multibackend import HedgeConfig

        if args.backends is None:
            raise InvalidParameterError(
                "--hedge requires a multi-backend fleet; pass --backends"
            )
        hedge_config = HedgeConfig(hedge_after=args.hedge_after)
    brownout_config = None
    if args.brownout:
        from repro.service import BrownoutConfig

        brownout_config = BrownoutConfig(
            queue_wait_threshold=args.brownout_threshold
        )
    slo_config = None
    if args.slo or args.slo_bundle_dir is not None:
        from repro.obs.slo import default_slo_config

        slo_config = default_slo_config(bundle_dir=args.slo_bundle_dir)
    config = ServiceConfig(
        policy=args.scheduling,
        repetition=args.repetition,
        max_inflight_questions=args.max_inflight,
        max_active_queries=args.max_active,
        max_queue_depth=args.queue_depth,
        overload_policy=args.overload,
        routing=args.routing,
        default_deadline=args.default_deadline,
        hedge=hedge_config,
        brownout=brownout_config,
        slo=slo_config,
    )
    journal = None
    if args.journal is not None:
        from repro.service import SchedulerJournal

        journal = SchedulerJournal.create(
            args.journal, snapshot_interval=args.snapshot_interval
        )
    scheduler = MaxScheduler(
        specs,
        latency,
        seed=args.seed,
        config=config,
        retry_policy=retry_policy,
        journal=journal,
        backends=fleet,
    )
    report = scheduler.run(on_tick=on_tick)
    if journal is not None:
        journal.close()
    if renderer is not None:
        renderer.finish()
    profile_name = args.faults if args.faults is not None else "none"
    retries = (
        f"retry x{retry_policy.max_attempts}" if retry_policy else "no retries"
    )
    print(
        f"workload {args.workload} ({len(specs)} queries), "
        f"policy {args.scheduling}, faults={profile_name}, {retries}"
    )
    if args.backends is not None:
        print(
            f"backends: {args.backends} ({len(fleet)} backend(s)), "
            f"routing {args.routing}"
        )
    if args.journal is not None:
        print(f"journal: {args.journal} (snapshot every "
              f"{args.snapshot_interval} tick(s))")
    print(report.render(per_query=args.per_query))
    if args.backends is not None:
        print("fleet:")
        for row in scheduler.router.summary():
            print(
                f"  {row['name']:<12} rounds {row['rounds']:>4}  "
                f"questions {row['questions_posted']:>6}  "
                f"outages {row['outages']:>3}  "
                f"cost ${row['cost']:.2f}  breaker {row['breaker']}"
            )
        if scheduler.router.hedge is not None:
            hedge = scheduler.router.hedge_summary()
            print(
                f"hedging: {hedge['hedges']} hedged round(s), "
                f"{hedge['wins']} mirror win(s), "
                f"{hedge['waste']} wasted posting(s)"
            )
    if scheduler.brownout is not None:
        print(
            f"brownout: level {scheduler.brownout.level}, "
            f"{scheduler.brownout.transitions} transition(s)"
        )
    if scheduler.slo is not None:
        health = scheduler.slo.health()
        print(
            f"slo: health {health.describe()}, "
            f"{scheduler.slo.fired_total} alert(s) fired, "
            f"{scheduler.slo.resolved_total} resolved"
        )
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.service import read_journal
    from repro.service.telemetry import (
        alert_transitions_from_records,
        samples_from_records,
    )

    contents = read_journal(args.journal)
    config = contents.header.get("config", {})
    if not isinstance(config.get("slo"), dict):
        print("health: ok (no SLO engine armed)")
        return 0
    samples = samples_from_records(contents.records)
    transitions = alert_transitions_from_records(contents.records)
    active = {}
    for transition in transitions:
        if transition.action == "fired":
            active[transition.rule] = transition
        else:
            active.pop(transition.rule, None)
    state = samples[-1].health if samples and samples[-1].health else "ok"
    suffix = f" ({', '.join(sorted(active))})" if active else ""
    print(f"health: {state}{suffix}")
    fired = sum(t.action == "fired" for t in transitions)
    resolved = len(transitions) - fired
    print(
        f"alerts: {len(active)} active, {fired} fired / {resolved} "
        f"resolved over {len(samples)} tick(s)"
    )
    for transition in transitions:
        print(
            f"  tick {transition.tick:>5}  {transition.action:<9}"
            f"{transition.severity:<9} {transition.rule} "
            f"(value {transition.value:.3f})"
        )
    if args.fail_degraded and state != "ok":
        return 1
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.obs.flight import validate_bundle
    from repro.service import recover_scheduler

    scheduler = recover_scheduler(args.journal, resume_journal=False)
    if scheduler.flight is None:
        raise InvalidParameterError(
            f"journal {args.journal} was written without an SLO config; "
            "re-run serve with --slo to arm the flight recorder"
        )
    bundle = scheduler.write_debug_bundle(args.output)
    manifest = validate_bundle(bundle)
    print(
        f"wrote debug bundle to {bundle} "
        f"({manifest['ring_entries']} ring entries: "
        f"{', '.join(manifest['files'])})"
    )
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.dashboard import DashboardRenderer
    from repro.service.telemetry import follow_samples, samples_from_journal

    renderer = DashboardRenderer()
    if args.follow:
        samples = follow_samples(
            args.journal, poll_interval=args.poll, timeout=args.timeout
        )
    else:
        samples = iter(samples_from_journal(args.journal))
    for sample in samples:
        renderer.update(sample)
    renderer.finish()
    return 0


def _cmd_metrics_export(args: argparse.Namespace) -> int:
    from repro.obs.openmetrics import render_openmetrics, write_openmetrics
    from repro.persistence import load_json

    payload = load_json(args.snapshot)
    if payload.get("kind") != "metrics_snapshot" or not isinstance(
        payload.get("snapshot"), dict
    ):
        raise InvalidParameterError(
            f"{args.snapshot} is not a metrics snapshot (expected the "
            f"--metrics-json output shape)"
        )
    snapshot = payload["snapshot"]
    if args.output is not None:
        write_openmetrics(snapshot, args.output)
        print(f"wrote OpenMetrics exposition to {args.output}")
    else:
        sys.stdout.write(render_openmetrics(snapshot))
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from repro.bench import compare_times, filter_times, load_bench_times

    baseline = load_bench_times(args.baseline)
    current = load_bench_times(args.current)
    if args.filter is not None:
        patterns = [token for token in args.filter.split(",") if token]
        baseline = filter_times(baseline, patterns)
        current = filter_times(current, patterns)
        if not current:
            raise InvalidParameterError(
                f"--filter {args.filter!r} matches no current bench"
            )
    comparison = compare_times(baseline, current, threshold=args.threshold)
    print(comparison.render())
    if comparison.ok:
        return 0
    if args.warn_only:
        print("(warn-only: regressions reported but not failing the run)")
        return 0
    return 1


def _cmd_bench_history(args: argparse.Namespace) -> int:
    from repro.bench import (
        append_history,
        current_git_sha,
        load_bench_times,
        load_history,
        make_history_entry,
        render_history,
    )

    times = load_bench_times(args.current)
    if not args.no_append:
        import datetime

        entry = make_history_entry(
            times,
            git_sha=current_git_sha(),
            timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
        )
        append_history(entry, args.history)
        print(f"appended {len(times)} bench(es) to {args.history}")
    entries = load_history(args.history)
    baseline = None
    if args.baseline != "-":
        try:
            baseline = load_bench_times(args.baseline)
        except InvalidParameterError:
            print(f"(no baseline at {args.baseline}; delta column skipped)")
    print(render_history(
        entries, baseline, limit=args.limit, threshold=args.threshold
    ))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.attribution import render_waterfall, waterfalls_from_records
    from repro.obs.export import read_jsonl
    from repro.obs.spans import assemble_spans, render_span_tree, span_roots

    if not Path(args.trace).is_file():
        raise InvalidParameterError(f"trace file not found: {args.trace}")
    records = read_jsonl(args.trace)
    waterfalls = waterfalls_from_records(records)
    if not waterfalls:
        print(f"{args.trace}: no query spans (was the run traced via "
              f"serve --trace?)")
        return 1
    if args.query_id is not None:
        if args.query_id not in waterfalls:
            known = ", ".join(str(q) for q in sorted(waterfalls))
            raise InvalidParameterError(
                f"query {args.query_id} not in {args.trace} "
                f"(trace has queries {known})"
            )
        selected = [args.query_id]
    else:
        selected = sorted(waterfalls)
    for query_id in selected:
        print(render_waterfall(waterfalls[query_id]))
        print()
    deadline_events = [
        r.event
        for r in records
        if r.event.kind == "DeadlineExceeded"
        and (args.query_id is None or r.event.query_id == args.query_id)
    ]
    if deadline_events:
        print("deadline breaches:")
        for event in deadline_events:
            overrun = (
                f"overran by {event.overrun:.1f}s"
                if event.overrun > 0
                else "stopped early"
            )
            print(
                f"  query {event.query_id}: {event.outcome} "
                f"(budget {event.deadline:.1f}s, {overrun})"
            )
        print()
    hedges = [r.event for r in records if r.event.kind == "RoundHedged"]
    if hedges and args.query_id is None:
        wins = sum(1 for e in hedges if e.winner == "mirror")
        print(
            f"hedged rounds: {len(hedges)} "
            f"({wins} won by the mirror backend)"
        )
        print()
    if args.tree:
        spans = assemble_spans(records)
        print("causal span tree:")
        for root in span_roots(spans):
            if args.query_id is not None and root.query_id not in (
                args.query_id, -1
            ):
                continue
            print("\n".join(render_span_tree(root, indent="  ")))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.tdp import TDPAllocator
    from repro.core.tdp_memo import solve_min_latency_memo
    from repro.obs.profiling import profiled, render_profile

    latency = _latency_from_args(args)
    solvers = (
        ("frontier", "memo") if args.solver == "both" else (args.solver,)
    )
    if args.repeat < 1:
        raise InvalidParameterError(
            f"--repeat must be >= 1, got {args.repeat}"
        )
    tdp = TDPAllocator()
    with profiled() as profiler:
        for _ in range(args.repeat):
            if "frontier" in solvers:
                tdp.plan(args.elements, args.budget, latency)
            if "memo" in solvers:
                solve_min_latency_memo(args.elements, args.budget, latency)
    print(
        f"profiled {' + '.join(solvers)} on c0={args.elements} "
        f"b={args.budget} x{args.repeat}"
    )
    print(render_profile(profiler.snapshot()))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import ChaosScenario, run_chaos, scenario_by_name

    if args.scenario is not None:
        if args.faults is not None or args.breaker:
            raise InvalidParameterError(
                "--scenario is a complete setup; it cannot be combined "
                "with --faults or --breaker"
            )
        import dataclasses

        scenario = dataclasses.replace(
            scenario_by_name(args.scenario),
            snapshot_interval=args.snapshot_interval,
        )
        if args.queries is not None:
            scenario = dataclasses.replace(scenario, n_queries=args.queries)
    else:
        scenario = ChaosScenario(
            workload=args.workload,
            seed=args.seed,
            faults=args.faults,
            retry_policy=_retry_policy(args),
            n_queries=args.queries,
            breaker=_breaker_config(args),
            snapshot_interval=args.snapshot_interval,
        )
    crash_points = None
    if args.crash_points is not None:
        try:
            crash_points = [
                int(token) for token in args.crash_points.split(",") if token
            ]
        except ValueError as error:
            raise InvalidParameterError(
                f"--crash-points must be comma-separated integers, got "
                f"{args.crash_points!r}"
            ) from error
    if args.sweep:
        report = run_chaos(scenario, sweep=True, journal_dir=args.journal_dir)
    elif crash_points is not None:
        report = run_chaos(
            scenario, crash_points=crash_points, journal_dir=args.journal_dir
        )
    else:
        report = run_chaos(
            scenario,
            n_crashes=args.crashes if args.crashes is not None else 3,
            journal_dir=args.journal_dir,
        )
    print(report.render())
    return 0 if report.all_equivalent else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.export import to_csv, to_json, to_report
    from repro.experiments.plotting import chart_for

    scale = scale_by_name(args.scale)
    names = available_experiments() if args.name == "all" else [args.name]
    tables = []
    for name in names:
        tables.extend(run_experiment(name, scale))

    if args.output_format == "json":
        rendered = to_json(tables)
    elif args.output_format == "markdown":
        rendered = to_report(tables, title=f"tDP reproduction ({scale.name})")
    elif args.output_format == "csv":
        rendered = "\n".join(to_csv(table) for table in tables)
    else:
        chunks = []
        for table in tables:
            chunks.append(table.to_text())
            if args.plot:
                chunks.append("")
                chunks.append(chart_for(table))
            chunks.append("")
        rendered = "\n".join(chunks)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {len(tables)} table(s) to {args.output}")
    else:
        print(rendered)
    return 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("allocators:     ", ", ".join(available_allocators()))
    print("selectors:      ", ", ".join(available_selectors()))
    print("experiments:    ", ", ".join(available_experiments()))
    print("fault profiles: ", ", ".join(available_fault_profiles()))
    print("workloads:      ", ", ".join(available_workloads()))
    print("batch policies: ", ", ".join(available_policies()))
    return 0


def _configure_verbose_logging() -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname).1s %(name)s: %(message)s")
    )
    package_logger = logging.getLogger("repro")
    package_logger.addHandler(handler)
    package_logger.setLevel(logging.DEBUG)


def _run_with_observability(
    args: argparse.Namespace, handler: Callable[[argparse.Namespace], int]
) -> int:
    """Wrap *handler* with tracing/metrics when the flags ask for them.

    Without ``--trace``/``--metrics`` (or on subcommands lacking them) the
    handler runs untouched — the ambient tracer stays the no-op
    ``NULL_TRACER`` and no registry reset happens.
    """
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    metrics_json = getattr(args, "metrics_json", None)
    if trace_path is None and not want_metrics and metrics_json is None:
        return handler(args)
    from repro import obs

    tracer: obs.Tracer = obs.NULL_TRACER
    if trace_path is not None:
        # Opening the trace file fails before the run, not after it.
        try:
            tracer = obs.RecordingTracer(path=trace_path)
        except OSError as error:
            raise ReproError(f"cannot write trace to {trace_path}: {error}") from error

    registry = obs.get_registry()
    registry.reset()
    obs.declare_standard_metrics(registry)
    try:
        with obs.use_tracer(tracer):
            exit_code = handler(args)
    finally:
        if isinstance(tracer, obs.RecordingTracer):
            tracer.close()
    if isinstance(tracer, obs.RecordingTracer):
        print(f"wrote {tracer.emitted} trace event(s) to {trace_path}")
    if metrics_json is not None:
        from repro.persistence import save_json

        save_json(
            {"kind": "metrics_snapshot", "snapshot": registry.snapshot()},
            metrics_json,
        )
        print(f"wrote metrics snapshot to {metrics_json}")
    if want_metrics:
        print()
        print("metrics snapshot:")
        print(obs.render_snapshot(registry.snapshot()))
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        _configure_verbose_logging()
    handlers = {
        "allocate": _cmd_allocate,
        "solve": _cmd_solve,
        "simulate": _cmd_simulate,
        "serve": _cmd_serve,
        "top": _cmd_top,
        "health": _cmd_health,
        "diagnose": _cmd_diagnose,
        "metrics-export": _cmd_metrics_export,
        "bench-check": _cmd_bench_check,
        "bench-history": _cmd_bench_history,
        "explain": _cmd_explain,
        "profile": _cmd_profile,
        "chaos": _cmd_chaos,
        "experiment": _cmd_experiment,
        "list": _cmd_list,
    }
    try:
        handler = handlers[args.command]
        if args.command == "explain":
            # explain *consumes* --trace; the observability wrapper would
            # treat it as an output path and overwrite the input file.
            return handler(args)
        return _run_with_observability(args, handler)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
