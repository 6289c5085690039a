"""Federating a workload across heterogeneous crowd platforms.

The paper models one platform with one latency function ``L(q)``.  A
real deployment can spread its rounds across *several* platforms — an
expensive boutique crowd that answers fast, a cheap bulk crowd that
takes its time, an internal pool with a hard per-round throughput cap.
This example runs the same multi-query workload:

1. on a single platform (the baseline),
2. on a three-backend fleet under each routing policy, comparing
   makespan against dollars spent,
3. on the same fleet with one backend suffering a sustained mid-run
   outage — its circuit breaker trips and the router reroutes its
   share to the survivors (the workload still completes).

Run with:  python examples/federated_fleet.py
"""

from repro.core.latency import mturk_car_latency
from repro.crowd.multibackend import backend_preset_by_name
from repro.service import MaxScheduler, ServiceConfig, generate_workload, workload_by_name

SEED = 0


def run(backends=None, routing="latency"):
    """One steady-workload run; returns (report, fleet summary rows)."""
    specs = generate_workload(workload_by_name("steady"), seed=SEED)
    scheduler = MaxScheduler(
        specs,
        mturk_car_latency(),
        seed=SEED,
        config=ServiceConfig(routing=routing),
        backends=backends,
    )
    report = scheduler.run()
    return report, scheduler.router.summary()


def describe(tag, report, rows):
    cost = sum(row["cost"] for row in rows)
    print(f"  {tag:<28} makespan {report.makespan:8.1f} s   "
          f"completed {len(report.completed):2d}/{report.n_queries}   "
          f"cost ${cost:6.2f}")
    for row in rows:
        print(f"      {row['name']:<10} rounds {row['rounds']:3d}  "
              f"questions {row['questions_posted']:5d}  "
              f"outages {row['outages']}  breaker {row['breaker']}")


def main():
    print("single platform (a one-backend fleet):")
    report, rows = run()
    describe("single platform", report, rows)

    print("\nthree-backend fleet ('trio' preset), per routing policy:")
    for policy in ("latency", "least-loaded", "weighted-price"):
        report, rows = run(backend_preset_by_name("trio"), routing=policy)
        describe(policy, report, rows)

    print("\nfailover: the balanced backend goes dark mid-run "
          "('outage-trio' preset):")
    report, rows = run(backend_preset_by_name("outage-trio"))
    describe("latency + breakers", report, rows)
    outages = sum(row["outages"] for row in rows)
    print(f"  -> {outages} outage(s) absorbed; every query still completed.")


if __name__ == "__main__":
    main()
