"""Zero-overhead-when-disabled profiling counters for the solver hot path.

The tDP solvers (:mod:`repro.core.tdp`, :mod:`repro.core.tdp_memo`) and
the service plan cache are the CPU-bound core of the reproduction; the
upcoming raw-speed pass needs *deterministic* work counters (cells
evaluated, memo hits, frontier points) to be judged against, not just
wall time.  This module provides them with the same discipline the
tracer uses:

* a single module-level :data:`PROFILER` whose ``enabled`` flag is a
  plain attribute — hot loops pay one predicate
  (``if PROFILER.enabled:``) when profiling is off, and the instrumented
  routines batch their tallies in locals so even the enabled path adds
  O(1) dict updates per solve, not per cell;
* the :func:`profiled` context manager flips the flag, and on exit
  publishes every counter to the ambient metrics registry under
  ``solver.<name>`` — so ``tdp-repro profile`` output and OpenMetrics
  exports agree.

Counters are *work* counts (pure function of the inputs), never timings,
so two runs of the same solve report identical numbers — that is what
makes them usable as a regression harness.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry, get_registry


class SolverProfiler:
    """A named-counter sink with a branch-predictable off switch.

    Instrumented code must guard every call on :attr:`enabled`; the
    methods themselves do not re-check, keeping the enabled path cheap
    and the disabled path a single attribute load.
    """

    __slots__ = ("enabled", "_counts")

    def __init__(self) -> None:
        self.enabled = False
        self._counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        """Increment counter *name* by *amount*."""
        self._counts[name] = self._counts.get(name, 0) + amount

    def reset(self) -> None:
        """Drop all counters (does not touch :attr:`enabled`)."""
        self._counts.clear()

    def snapshot(self) -> Dict[str, int]:
        """The counters, sorted by name (deterministic rendering)."""
        return dict(sorted(self._counts.items()))

    def publish(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Add every counter to ``solver.<name>`` in *registry* (ambient
        registry when omitted)."""
        registry = registry if registry is not None else get_registry()
        for name, value in sorted(self._counts.items()):
            registry.counter(f"solver.{name}").inc(value)


#: The process-wide profiler every instrumented module checks.
PROFILER = SolverProfiler()


@contextmanager
def profiled(
    registry: Optional[MetricsRegistry] = None, publish: bool = True
) -> Iterator[SolverProfiler]:
    """Enable :data:`PROFILER` for the ``with`` body.

    Counters are reset on entry; on exit the flag is restored to its
    previous value and (unless ``publish=False``) the tallies land in
    the metrics registry as ``solver.*`` counters.
    """
    previous = PROFILER.enabled
    PROFILER.reset()
    PROFILER.enabled = True
    try:
        yield PROFILER
    finally:
        PROFILER.enabled = previous
        if publish:
            PROFILER.publish(registry)


def render_profile(counts: Mapping[str, int]) -> str:
    """Aligned text table of a counter snapshot (``tdp-repro profile``)."""
    if not counts:
        return "no profiling counters recorded"
    names = sorted(counts)
    width = max(len(name) for name in names)
    lines: List[str] = [f"{'counter':<{width}}  value"]
    for name in names:
        lines.append(f"{name:<{width}}  {counts[name]}")
    return "\n".join(lines)


__all__ = ["PROFILER", "SolverProfiler", "profiled", "render_profile"]
