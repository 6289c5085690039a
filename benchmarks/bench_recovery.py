"""Crash-recovery benchmarks: journaling overhead and recovery cost.

Two questions the robustness work has to answer with numbers:

* what does the write-ahead journal cost while nothing goes wrong?
  (``bench_journal_overhead_steady`` — the acceptance bar is < 15 %
  wall-clock over the unjournaled steady preset, and a deterministic
  bar of < 1500 journal bytes per query at the default snapshot cadence);
* how expensive is a recovery, and how does it scale with workload size?
  (``bench_recover_after_midpoint_crash``).
"""

import time

from repro.chaos import ChaosScenario, build_scheduler, total_steps
from repro.service.journal import SchedulerJournal, recover_scheduler

SEED = 0
#: Journal bytes per query on the steady preset at the default cadence.
JOURNAL_BYTES_PER_QUERY_BOUND = 1500


def _timed_run(scenario, journal_path=None, snapshot_interval=None):
    if journal_path is None:
        journal = None
    elif snapshot_interval is None:  # the journal's shipped default cadence
        journal = SchedulerJournal.create(journal_path)
    else:
        journal = SchedulerJournal.create(
            journal_path, snapshot_interval=snapshot_interval
        )
    scheduler = build_scheduler(scenario, journal=journal)
    start = time.perf_counter()
    report = scheduler.run()
    elapsed = time.perf_counter() - start
    if journal is not None:
        journal.close()
    return report, elapsed


def bench_journal_overhead_steady(benchmark, tmp_path):
    """Journaled vs unjournaled steady run — the < 15 % overhead bar."""
    scenario = ChaosScenario(workload="steady", seed=SEED)

    def compare():
        # Interleave the two variants, and compare the *fastest* rep of
        # each: the workload is deterministic, so scheduler noise is
        # strictly additive and min-of-reps estimates the true cost.  A
        # sum (or mean) would let one descheduled rep fake an overhead
        # regression.
        bare, journaled = [], []
        for rep in range(5):
            _, dt_bare = _timed_run(scenario)
            _, dt_journal = _timed_run(
                scenario, journal_path=tmp_path / f"steady-{rep}.jsonl"
            )
            bare.append(dt_bare)
            journaled.append(dt_journal)
        return min(bare), min(journaled)

    bare, journaled = benchmark.pedantic(compare, rounds=1, iterations=1)
    ratio = journaled / bare
    print()
    print("-- journal overhead / steady --")
    print(f"unjournaled: {bare:.3f} s   journaled: {journaled:.3f} s   "
          f"ratio: {ratio:.3f}")
    report_bare, _ = _timed_run(scenario)
    equal_path = tmp_path / "steady-equal.jsonl"
    report_journal, _ = _timed_run(scenario, journal_path=equal_path)
    assert report_journal == report_bare
    # Snapshots hold the active set, not the run, and each result is
    # journaled once: 668 B/query here.  Deterministic, so unlike the
    # ratio it does not depend on the host's speed.
    bytes_per_query = equal_path.stat().st_size / report_journal.n_queries
    print(f"journal: {bytes_per_query:.0f} B/query")
    assert bytes_per_query < JOURNAL_BYTES_PER_QUERY_BOUND, (
        f"journal wrote {bytes_per_query:.0f} B/query "
        f"(bound {JOURNAL_BYTES_PER_QUERY_BOUND})"
    )
    assert ratio < 1.15, (
        f"journaling added {100 * (ratio - 1):.1f}% wall-clock "
        f"(acceptance bar is < 15%)"
    )


def bench_snapshot_interval_tradeoff(benchmark, tmp_path):
    """Journal size vs snapshot cadence on the steady preset."""
    scenario = ChaosScenario(workload="steady", seed=SEED)

    def sweep():
        rows = []
        for interval in (1, 5, 25):
            path = tmp_path / f"interval-{interval}.jsonl"
            _timed_run(scenario, journal_path=path, snapshot_interval=interval)
            rows.append((interval, path.stat().st_size))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("-- journal size vs snapshot interval / steady --")
    print(f"{'interval':>8} {'bytes':>12}")
    for interval, size in rows:
        print(f"{interval:>8} {size:>12}")
    # Snapshots dominate journal size, so sparser must be strictly smaller.
    sizes = [size for _, size in rows]
    assert sizes == sorted(sizes, reverse=True)


def bench_recover_after_midpoint_crash(benchmark, tmp_path):
    """Recovery wall-clock after a mid-run kill, per workload preset."""

    def recover_all():
        rows = []
        for workload in ("smoke", "steady", "burst"):
            scenario = ChaosScenario(workload=workload, seed=SEED)
            crash_after = total_steps(scenario) // 2
            path = tmp_path / f"{workload}.jsonl"
            journal = SchedulerJournal.create(path)
            victim = build_scheduler(scenario, journal=journal)
            steps = 0
            while steps < crash_after and victim.step():
                steps += 1
            journal.close()
            start = time.perf_counter()
            recovered = recover_scheduler(path)
            recovery_time = time.perf_counter() - start
            report = recovered.run()
            if recovered.journal is not None:
                recovered.journal.close()
            rows.append(
                (workload, crash_after, recovery_time, report.n_queries)
            )
        return rows

    rows = benchmark.pedantic(recover_all, rounds=1, iterations=1)
    print()
    print("-- recovery cost after midpoint crash --")
    print(f"{'workload':>8} {'killed@':>8} {'recover (s)':>12} {'queries':>8}")
    for workload, crash_after, recovery_time, n_queries in rows:
        print(
            f"{workload:>8} {crash_after:>8} {recovery_time:>12.4f} "
            f"{n_queries:>8}"
        )
        assert recovery_time < 5.0
