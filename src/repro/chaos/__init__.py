"""repro.chaos — crash-injection harness for the journaled scheduler.

Runs a workload, kills the scheduler at chosen tick boundaries, recovers
from the write-ahead journal and asserts the recovered report and final
scheduler state are bit-identical to an uninterrupted run's.  Exposed on the CLI as
``tdp-repro chaos``; the exhaustive every-boundary sweep backs the
``slow``-marked acceptance test.
"""

from repro.chaos.harness import (
    ChaosReport,
    ChaosScenario,
    CrashOutcome,
    available_scenarios,
    build_scheduler,
    describe_mismatch,
    describe_state_mismatch,
    run_chaos,
    run_with_crash,
    scenario_by_name,
    seeded_crash_points,
    total_steps,
    uninterrupted_report,
    uninterrupted_run,
)

__all__ = [
    "ChaosScenario",
    "CrashOutcome",
    "ChaosReport",
    "available_scenarios",
    "build_scheduler",
    "uninterrupted_report",
    "uninterrupted_run",
    "total_steps",
    "describe_mismatch",
    "describe_state_mismatch",
    "run_with_crash",
    "scenario_by_name",
    "seeded_crash_points",
    "run_chaos",
]
