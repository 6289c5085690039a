"""Figure 15: running time of computing a tDP allocation.

Regenerates the (c0, budget-multiple) timing grid.  Expected shape: the
time barely grows with the budget (the paper's pruning observation; our
Pareto solver is budget-insensitive by construction) and grows roughly
quadratically in the collection size.

``bench_tdp_plan_distinct_shapes`` times the other side of the solver: a
service planning many distinct query shapes under one latency model, which
one ``TDPAllocator`` answers from a single growing frontier table.  Its
work count is gated too: every frontier row is built once, whatever the
budgets, so the 357 shapes build rows 2..400 and no more, and a complete
row forms one candidate per stored point, so no candidate is padding.
"""

import random

from _harness import SCALE
from repro.core.latency import LinearLatency
from repro.core.tdp import TDPAllocator
from repro.experiments import fig15
from repro.obs.profiling import profiled

#: Every (c0, budget) shape of a service mix with c0 in 100..400 and
#: budgets of 2-6x c0, in a fixed shuffled arrival order.
DISTINCT_SHAPES = [
    (c0, round(factor * c0))
    for c0 in range(100, 401, 6)
    for factor in (2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0)
]
random.Random(0).shuffle(DISTINCT_SHAPES)


def bench_fig15_tdp_runtime(report):
    (table,) = report(lambda: fig15.run(SCALE))
    assert all(row[3] > 0 for row in table.rows)


def bench_tdp_plan_distinct_shapes(benchmark):
    latency = LinearLatency(239, 0.06)

    def plan_all():
        tdp = TDPAllocator()
        with profiled(publish=False) as profiler:
            plans = [tdp.plan(c0, budget, latency) for c0, budget in DISTINCT_SHAPES]
        return plans, profiler.snapshot()

    plans, counts = benchmark(plan_all)
    assert len(plans) == len(DISTINCT_SHAPES) == 357
    assert all(
        plan.sequence[0] == c0 and plan.questions_used <= budget
        for plan, (c0, budget) in zip(plans, DISTINCT_SHAPES)
    )
    assert counts["frontier.rows"] == 399
    assert counts["frontier.candidates"] == counts["frontier.cells"]
