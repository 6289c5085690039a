"""A fixed kernel that measures how fast the host runs right now.

The machines this benchmark runs on are shared: over minutes, the work a
thread gets done per second drifts by 10-25% with nothing visible to the
guest (no steal time, no frequency change it can read).  Every wall-clock
metric drifts with it, and no statistic over one run's samples can tell
that drift from a change to the program.

:func:`kernel` does the same work on every call, in two parts like the
service's own mix: interpreter work (dicts, sets, a heap, small objects,
seeded random draws) and numpy array work (sorting, scans, fancy
indexing over arrays of up to 640 KB, like the tDP frontier tables).  It uses
nothing from ``src/``, so no change to the program moves it.  Timed
between the repeats of a run, it gives the host's speed in that run, and
the wall-clock end-to-end metrics are rescaled to :data:`REFERENCE_S`
(see ``README.md``).
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Dict, List, Set, Tuple

import numpy as np

#: The kernel's time, in seconds, on the reference machine (the 2-vCPU
#: Xeon VM the README's baselines come from).  It only fixes the scale of
#: the rescaled metrics; comparisons between commits do not depend on it.
REFERENCE_S = 0.006


class _Item:
    __slots__ = ("key", "value", "seen")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value
        self.seen = 0


def _interpreter_work() -> int:
    rng = random.Random(20150531)
    items = [_Item(i, rng.random()) for i in range(2000)]
    heap: List[Tuple[float, int]] = []
    groups: Dict[int, Set[int]] = {}
    for item in items:
        heapq.heappush(heap, (item.value, item.key))
        groups.setdefault(item.key % 61, set()).add(item.key)
    total = 0
    while heap:
        value, key = heapq.heappop(heap)
        item = items[key]
        item.seen += 1
        total += len(groups[key % 61]) + int(value * 1000.0 + item.seen)
    ordered = sorted(items, key=lambda item: (item.key % 7, -item.value))
    pairs = {(a.key, b.key): a.value < b.value for a, b in zip(ordered, ordered[1:])}
    return total + sum(pairs.values())


def _array_work() -> int:
    rng = np.random.default_rng(20150531)
    values = rng.random(80_000)
    order = np.argsort(values)
    running = np.minimum.accumulate(np.cumsum(values[order])[::-1])
    table = np.full((200, 400), np.inf)
    table[:, :200] = values[:40_000].reshape(200, 200)
    best = np.argmin(table, axis=1)
    return int(running.size + best.sum() + (order[:1000] % 7).sum())


def kernel() -> int:
    """One fixed unit of work; returns a checksum."""
    return _interpreter_work() + _array_work()


def time_kernel() -> float:
    """Seconds taken by one kernel call."""
    start = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - start) * 1e-9
