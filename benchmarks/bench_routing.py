"""Multi-backend routing benchmarks: policy tradeoffs and failover cost.

Two questions the federation layer has to answer with numbers:

* what do the routing policies actually trade?
  (``bench_routing_policy_sweep`` — makespan vs dollar cost of the same
  steady workload on the ``trio`` fleet under each policy);
* what does failover cost when a backend goes dark mid-run?
  (``bench_routing_failover`` — ``trio`` vs ``outage-trio``).
"""

from repro.core.latency import mturk_car_latency
from repro.crowd.multibackend import backend_preset_by_name
from repro.service import (
    MaxScheduler,
    ServiceConfig,
    generate_workload,
    workload_by_name,
)

SEED = 0


def _run(backends, routing="latency", workload="steady"):
    specs = generate_workload(workload_by_name(workload), seed=SEED)
    scheduler = MaxScheduler(
        specs,
        mturk_car_latency(),
        seed=SEED,
        config=ServiceConfig(routing=routing),
        backends=backends,
    )
    return scheduler.run(), scheduler


def bench_routing_policy_sweep(benchmark):
    """Makespan vs dollar cost of each policy on the ``trio`` fleet."""

    def sweep():
        rows = []
        for policy in ("latency", "least-loaded", "weighted-price"):
            report, scheduler = _run(
                backends=backend_preset_by_name("trio"), routing=policy
            )
            cost = sum(row["cost"] for row in scheduler.router.summary())
            rows.append((policy, report.makespan, cost, report.accuracy))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("-- routing policy sweep / steady on trio --")
    print(f"{'policy':>15} {'makespan (s)':>13} {'cost ($)':>9} {'acc':>5}")
    for policy, makespan, cost, accuracy in rows:
        print(f"{policy:>15} {makespan:>13.1f} {cost:>9.2f} {accuracy:>5.0%}")
        assert accuracy == 1.0
    by_policy = {policy: cost for policy, _, cost, _ in rows}
    # weighted-price exists to spend less than the latency chaser.
    assert by_policy["weighted-price"] <= by_policy["latency"]


def bench_routing_failover(benchmark):
    """Failover cost: the same workload with one backend going dark."""

    def compare():
        clean, _ = _run(backends=backend_preset_by_name("trio"))
        stormy, scheduler = _run(
            backends=backend_preset_by_name("outage-trio")
        )
        outages = sum(row["outages"] for row in scheduler.router.summary())
        return clean, stormy, outages

    clean, stormy, outages = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    print()
    print("-- failover cost / steady on trio vs outage-trio --")
    print(f"clean makespan:  {clean.makespan:>10.1f} s")
    print(f"outage makespan: {stormy.makespan:>10.1f} s "
          f"({outages} backend outage(s) absorbed)")
    # The point of failover: the fleet finishes the whole workload anyway.
    assert len(stormy.completed) == len(clean.completed)

