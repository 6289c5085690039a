"""Figure 11's claims, pinned over seeds at full scale.

Figures 11(a) and 11(b) are the only experiments that read the simulated
platform (Figures 12-15 time rounds with the estimated ``L(q)``), so any
change to how the platform draws its worker pool shows up here first.
Each seed runs the full protocol — eight batch sizes × 20 batches for the
fit, then five allocators × five real runs at c0 = 500, b = 4000 — and
checks the claims EXPERIMENTS.md makes, not its numbers:

* Figure 11(b): HE and HF are slower than tDP at every seed; tDP has the
  lowest real time averaged over the seeds, and at all but a few of them;
* Figure 11(a): the fitted ``L(q)`` is overhead-dominated across the
  measured range — ``delta > alpha * 1280`` with both positive.

tDP's lead over the runner-up (usually uHE) is about 10% in the median
seed, and five real runs per allocator leave enough noise that the
runner-up wins at some seeds: at 10 of seeds 11-110 with the event-loop
platform and at 7 with the slot-drawn one.  At a 10% rate, four or more
such seeds out of ten have a probability of 1.3%; three are allowed.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import fig11a, fig11b
from repro.experiments.config import ALLOCATOR_NAMES, FULL

SEEDS = range(1, 11)


@pytest.fixture(scope="module")
def fig11():
    """``{seed: (fitted L(q), {allocator: real time})}``."""
    runs = {}
    for seed in SEEDS:
        scale = dataclasses.replace(FULL, seed=seed)
        estimate = fig11a.estimate_latency(scale)
        (table,) = fig11b.run(scale, estimate=estimate.fitted)
        real = dict(zip(table.column("allocator"), table.column("real time (s)")))
        runs[seed] = estimate.fitted, real
    return runs


def test_tdp_has_the_lowest_real_time(fig11):
    reals = [real for _, real in fig11.values()]
    mean = {name: np.mean([real[name] for real in reals]) for name in ALLOCATOR_NAMES}
    assert min(mean, key=mean.get) == "tDP", mean
    beaten = [seed for seed, (_, real) in fig11.items() if min(real, key=real.get) != "tDP"]
    assert len(beaten) <= 3, beaten


def test_he_and_hf_are_slower_than_tdp(fig11):
    for seed, (_, real) in fig11.items():
        assert real["HE"] > real["tDP"], (seed, real)
        assert real["HF"] > real["tDP"], (seed, real)


def test_fit_is_overhead_dominated(fig11):
    for seed, (fitted, _) in fig11.items():
        assert fitted.delta > 0 and fitted.alpha > 0, (seed, fitted)
        assert fitted.delta > fitted.alpha * max(fig11a.FULL_BATCH_SIZES), (
            seed,
            fitted,
        )
