"""Per-layer wall-clock split, timed from outside the program.

:class:`LayerTracer` replaces each layer's public entry points (class
attributes) with wrappers that time every call with ``perf_counter_ns``
and keep a call stack, so a layer's *self* time is its calls' duration
minus the time spent in nested wrapped callees.  Counts are read from
return values (``RWLResult``, ``RoundOutcome``, ``BatchResult`` ...) and
from the final ``ServiceReport``; nothing inside ``src/`` is touched, and
leaving the tracer's context puts every original attribute back.

Whatever a wrapper does outside its own timed interval lands in the
caller's self time, so the layers' self times add up to the traced drain
wall minus only the benchmark's own step loop.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.allocation import BudgetAllocator
from repro.crowd.faults import FaultyPlatform
from repro.crowd.multibackend.router import CapacityAwareRouter
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer
from repro.engine.session import MaxSession
from repro.obs.slo import SLOEngine
from repro.obs.stats import percentile
from repro.service import (
    AdmissionController,
    BrownoutController,
    FairSharePolicy,
    FIFOPolicy,
    MaxScheduler,
    PlanCache,
    PriorityPolicy,
    SchedulerJournal,
    ServiceReport,
)


# Observers fold one call's arguments and return value into its layer's
# counters.  They run after the call's timed interval.
def _plan_cache_get(counts, args, result):
    counts["hits"] += result is not None


def _router_post_round(counts, args, outcome):
    counts["unposted"] += len(outcome.unposted)
    counts["hedges"] += len(outcome.decision.hedges)
    counts["outage_rounds"] += bool(outcome.outaged)


def _rwl_ask(counts, args, result):
    counts["distinct_asked"] += len(result.answers) + len(result.unanswered)
    counts["answered"] += len(result.answers)
    counts["copies_posted"] += result.questions_posted
    counts["attempts"] += result.attempts
    counts["majority_flips"] += result.majority_flips
    counts["unanswered"] += len(result.unanswered)
    counts["sim_latency_s"] += result.latency


def _platform_post_batch(counts, args, result):
    counts["answers"] += result.n_answers


def _session_submit(counts, args, result):
    counts["answers_submitted"] += len(args[1])


def _brownout_observe(counts, args, result):
    counts["transitions"] += result is not None


#: layer -> [(class, method, name of the method's self-time metric,
#: observer)].  Methods sharing a time name are summed.
LAYERS: Dict[str, List[Tuple[type, str, str, Optional[Callable]]]] = {
    "service.scheduler": [
        (MaxScheduler, "step", "self_s", None),
        (MaxScheduler, "run", "self_s", None),
    ],
    "service.admission": [
        (AdmissionController, "decide", "decide_s", None),
    ],
    "service.plan_cache": [
        (PlanCache, "get", "get_s", _plan_cache_get),
    ],
    "core.allocation": [
        (BudgetAllocator, "allocate", "solve_s", None),
    ],
    "service.policies": [
        (FIFOPolicy, "order", "order_s", None),
        (PriorityPolicy, "order", "order_s", None),
        (FairSharePolicy, "order", "order_s", None),
    ],
    "crowd.multibackend.router": [
        (CapacityAwareRouter, "post_round", "self_s", _router_post_round),
    ],
    "crowd.rwl": [
        (ReliableWorkerLayer, "ask", "self_s", _rwl_ask),
    ],
    "crowd.faults": [
        (FaultyPlatform, "post_batch", "self_s", None),
    ],
    "crowd.platform": [
        (SimulatedPlatform, "post_batch", "busy_s", _platform_post_batch),
    ],
    "engine.session": [
        (MaxSession, "pending_questions", "select_s", None),
        (MaxSession, "submit", "submit_s", _session_submit),
    ],
    "service.journal": [
        (SchedulerJournal, "record", "record_s", None),
        (SchedulerJournal, "write_snapshot", "snapshot_s", None),
    ],
    "obs.slo": [
        (SLOEngine, "observe", "observe_s", None),
    ],
    "service.deadline": [
        (BrownoutController, "observe", "observe_s", _brownout_observe),
    ],
}


class _Timer:
    """Calls and self nanoseconds of the methods behind one time name."""

    __slots__ = ("calls", "self_ns", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.durations: List[int] = []


class LayerTracer:
    """Timing wrappers on every layer's entry points.

    The wrappers are live only inside the ``with`` block.  Enter it before
    constructing the scheduler to be traced, and call :meth:`reset` right
    before the drain so construction is not counted.
    """

    def __init__(self) -> None:
        self._stack: List[List[int]] = []
        self._timers: Dict[Tuple[str, str], _Timer] = {}
        self._counts: Dict[str, Counter] = {layer: Counter() for layer in LAYERS}
        self._saved: List[Tuple[type, str, Any]] = []

    def __enter__(self) -> "LayerTracer":
        for layer, targets in LAYERS.items():
            for cls, method, time_name, observer in targets:
                timer = self._timers.setdefault((layer, time_name), _Timer())
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(original, layer, timer, observer))
        self.reset()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def reset(self) -> None:
        """Zero every timer and counter; the wrappers stay installed."""
        for timer in self._timers.values():
            timer.calls = 0
            timer.self_ns = 0
            timer.durations = []
        for counter in self._counts.values():
            counter.clear()

    def _wrap(
        self,
        function: Callable,
        layer: str,
        timer: _Timer,
        observer: Optional[Callable],
    ) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns
        keep_durations = layer == "core.allocation"
        counts = self._counts[layer]

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            nested = [0]
            stack.append(nested)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - nested[0]
                timer.calls += 1
                timer.self_ns += own
                if keep_durations:
                    timer.durations.append(own)
            if observer is not None:
                observer(counts, args, result)
            return result

        return wrapper

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer, in seconds."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for (layer, _), timer in self._timers.items():
            totals[layer] += timer.self_ns * 1e-9
        return totals

    def metrics(
        self,
        report: ServiceReport,
        drain_s: float,
        journal_bytes: int,
        hedge_waste: int,
    ) -> Dict[str, float]:
        """Every per-layer metric of one traced drain, by full name.

        *hedge_waste* is the router's wasted hedge copies (0 without one).
        Layers that run on every workload report self time in seconds.
        The router, faults, journal, SLO and brownout layers run on only
        some workloads and report it as a share of the drain, so that no
        time metric reads a constant 0.0 on the workloads without them.
        """
        seconds = {key: t.self_ns * 1e-9 for key, t in self._timers.items()}
        calls = {key: t.calls for key, t in self._timers.items()}
        counts = self._counts
        finished = report.finished
        waits = [r.queue_wait for r in finished] or [0.0]
        solve_ms = [
            ns * 1e-6 for ns in self._timers[("core.allocation", "solve_s")].durations
        ] or [0.0]
        lookups = calls[("service.plan_cache", "get_s")]
        rwl = counts["crowd.rwl"]
        answers = counts["crowd.platform"]["answers"]
        busy_s = seconds[("crowd.platform", "busy_s")]
        per_layer = {
            "service.scheduler": {
                "ticks": report.ticks,
                "self_s": seconds[("service.scheduler", "self_s")],
                "queries_per_round": (
                    sum(r.rounds for r in finished) / report.shared_rounds
                    if report.shared_rounds else 0.0
                ),
            },
            "service.admission": {
                "decisions": calls[("service.admission", "decide_s")],
                "shed": len(report.shed),
                "queue_wait_p50_s": percentile(waits, 50),
                "queue_wait_p95_s": percentile(waits, 95),
                "decide_s": seconds[("service.admission", "decide_s")],
            },
            "service.plan_cache": {
                "lookups": lookups,
                "hit_rate": (
                    counts["service.plan_cache"]["hits"] / lookups if lookups else 0.0
                ),
                "get_s": seconds[("service.plan_cache", "get_s")],
            },
            "core.allocation": {
                "solves": calls[("core.allocation", "solve_s")],
                "solve_s": seconds[("core.allocation", "solve_s")],
                "solve_p50_ms": percentile(solve_ms, 50),
                "solve_max_ms": max(solve_ms),
            },
            "service.policies": {
                "calls": calls[("service.policies", "order_s")],
                "order_s": seconds[("service.policies", "order_s")],
            },
            "crowd.multibackend.router": {
                "rounds": calls[("crowd.multibackend.router", "self_s")],
                "unposted": counts["crowd.multibackend.router"]["unposted"],
                "hedges": counts["crowd.multibackend.router"]["hedges"],
                "hedge_waste_frac": (
                    hedge_waste / rwl["copies_posted"] if rwl["copies_posted"] else 0.0
                ),
                "outage_rounds": counts["crowd.multibackend.router"]["outage_rounds"],
            },
            "crowd.rwl": {
                "calls": calls[("crowd.rwl", "self_s")],
                "self_s": seconds[("crowd.rwl", "self_s")],
                "distinct_asked": rwl["distinct_asked"],
                "copies_posted": rwl["copies_posted"],
                "attempts": rwl["attempts"],
                "majority_flips": rwl["majority_flips"],
                "unanswered": rwl["unanswered"],
                "answered_frac": (
                    rwl["answered"] / rwl["distinct_asked"]
                    if rwl["distinct_asked"] else 0.0
                ),
                "sim_latency_s": rwl["sim_latency_s"],
            },
            "crowd.faults": {
                "calls": calls[("crowd.faults", "self_s")],
            },
            "crowd.platform": {
                "calls": calls[("crowd.platform", "busy_s")],
                "busy_s": busy_s,
                "answers": answers,
                "answers_per_s": answers / busy_s if busy_s > 0 else 0.0,
            },
            "engine.session": {
                "select_s": seconds[("engine.session", "select_s")],
                "submit_s": seconds[("engine.session", "submit_s")],
                "rounds": calls[("engine.session", "submit_s")],
                "answers_submitted": counts["engine.session"]["answers_submitted"],
            },
            "service.journal": {
                "records": calls[("service.journal", "record_s")],
                "snapshots": calls[("service.journal", "snapshot_s")],
                "bytes": journal_bytes,
                "bytes_per_query": journal_bytes / report.n_queries,
                "snapshot_share": seconds[("service.journal", "snapshot_s")] / drain_s,
            },
            "obs.slo": {
                "calls": calls[("obs.slo", "observe_s")],
            },
            "service.deadline": {
                "calls": calls[("service.deadline", "observe_s")],
                "transitions": counts["service.deadline"]["transitions"],
            },
        }
        own = self.self_seconds()
        out: Dict[str, float] = {}
        for layer, values in per_layer.items():
            values["share"] = own[layer] / drain_s
            for name, value in values.items():
                out[f"{layer}.{name}"] = value
        return out
