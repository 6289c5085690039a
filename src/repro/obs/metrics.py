"""Process-wide metrics: counters, gauges and histograms.

A :class:`MetricsRegistry` is a named collection of instruments with
``snapshot()`` / ``reset()`` semantics.  Instruments are created lazily on
first access and are thread-safe (the simulated platform is single-threaded
today, but the ROADMAP's scaling direction — sharded/async execution — must
not invalidate the metrics layer).

The instrumented hot paths record into the process-wide default registry
(:func:`get_registry`) so that metrics work with zero setup; tests that
need isolation construct their own registry.  Recording is cheap — one
lock-guarded float update per call — and the hot paths only record
*aggregates* (e.g. one counter bump per DP solve, not per DP cell).

Histograms retain the first :data:`_HISTOGRAM_SAMPLE_CAP` raw samples and
additionally maintain fixed-boundary cumulative **buckets** over *every*
observation, so percentiles stay accurate (to within one bucket width) on
runs long enough to blow past the sample cap, and any snapshot can be
rendered in the OpenMetrics exposition format
(:mod:`repro.obs.openmetrics`).
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.stats import nearest_rank, percentile

#: Sample-retention cap per histogram; beyond it the running aggregates
#: (count/total/min/max) and the cumulative buckets keep updating, and
#: snapshots carry ``truncated: True``.
_HISTOGRAM_SAMPLE_CAP = 4096

Number = Union[int, float]

#: Default histogram bucket upper bounds (seconds).  A 1-2.5-5 geometric
#: ladder from a millisecond to a simulated fortnight: fine enough that
#: a bucket-estimated percentile stays within one bucket width of the
#: exact nearest-rank value, coarse enough that a snapshot stays small.
#: An implicit +Inf bucket always follows the last finite bound.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    mantissa * 10.0**exponent
    for exponent in range(-3, 6)
    for mantissa in (1.0, 2.5, 5.0)
)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the OpenMetrics exposition grammar."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def labeled_name(base: str, labels: Dict[str, str]) -> str:
    """The canonical registry name of a labeled series.

    The registry itself is label-unaware — a labeled series is just an
    instrument whose name embeds a sorted, escaped OpenMetrics label set:
    ``labeled_name("service.latency_component", {"component": "retry"})``
    is ``service.latency_component{component="retry"}``.  The exposition
    renderer (:mod:`repro.obs.openmetrics`) splits the suffix back off,
    so the same instrument scrapes as a properly-labeled series.
    """
    if not labels:
        return base
    parts = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return f"{base}{{{parts}}}"


def bucket_percentile(
    bounds: Sequence[float],
    cumulative_counts: Sequence[int],
    count: int,
    p: float,
    minimum: Number,
    maximum: Number,
) -> float:
    """Estimate the nearest-rank *p*-th percentile from cumulative buckets.

    Returns the upper bound of the bucket containing the rank, clamped to
    the observed ``[minimum, maximum]`` range — so the estimate is off by
    at most one bucket width, and the +Inf bucket degrades to the exact
    observed maximum.
    """
    rank = nearest_rank(count, p)
    index = bisect.bisect_left(cumulative_counts, rank)
    if index >= len(bounds):  # the +Inf overflow bucket
        return float(maximum)
    return float(min(max(bounds[index], minimum), maximum))


def snapshot_percentile(state: Dict[str, Any], p: float) -> Optional[float]:
    """The *p*-th percentile of a histogram *snapshot* dict.

    Exact (nearest-rank over the retained samples) while the sample cap
    has not been reached; bucket-estimated once the snapshot is
    ``truncated``.  ``None`` for an empty histogram.
    """
    if state.get("type") != "histogram" or not state.get("count"):
        return None
    if not state.get("truncated"):
        return float(percentile(state["samples"], p))
    return bucket_percentile(
        state["bucket_bounds"],
        state["bucket_counts"],
        state["count"],
        p,
        state["min"],
        state["max"],
    )


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A value that can go up and down; remembers only the latest."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value: Optional[Number] = None

    def set(self, value: Number) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: Number = 1) -> None:
        with self._lock:
            self._value = (self._value or 0) + amount

    def dec(self, amount: Number = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> Optional[Number]:
        return self._value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = None


class Histogram:
    """A stream of observations with running aggregates and fixed buckets.

    The first ``_HISTOGRAM_SAMPLE_CAP`` samples are retained in order (the
    per-round candidate counts of a run, say, stay individually visible in
    a snapshot); past the cap the aggregates *and* the fixed-boundary
    cumulative buckets keep updating, so :meth:`percentile` stays accurate
    to within one bucket width on arbitrarily long runs, and snapshots say
    so explicitly via their ``truncated`` flag.
    """

    def __init__(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        self._lock = threading.Lock()
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKET_BOUNDS
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name} bucket bounds must be strictly "
                f"increasing: {bounds}"
            )
        self._bounds = bounds
        #: Per-bucket (non-cumulative) counts; the final slot is +Inf.
        self._bucket_counts = [0] * (len(bounds) + 1)
        self._samples: List[Number] = []
        self._count = 0
        self._total: float = 0.0
        self._min: Optional[Number] = None
        self._max: Optional[Number] = None

    def observe(self, value: Number) -> None:
        with self._lock:
            self._count += 1
            self._total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            self._bucket_counts[bisect.bisect_left(self._bounds, value)] += 1
            if len(self._samples) < _HISTOGRAM_SAMPLE_CAP:
                self._samples.append(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> Optional[float]:
        return self._total / self._count if self._count else None

    def percentile(self, p: float) -> Optional[float]:
        """The nearest-rank *p*-th percentile of everything observed.

        Exact while every observation is still retained; bucket-estimated
        (within one bucket width) once the sample cap has been passed.
        ``None`` for an empty histogram.
        """
        with self._lock:
            if not self._count:
                return None
            if len(self._samples) == self._count:
                return float(percentile(self._samples, p))
            return bucket_percentile(
                self._bounds,
                self._cumulative_counts(),
                self._count,
                p,
                self._min,
                self._max,
            )

    def _cumulative_counts(self) -> List[int]:
        cumulative, running = [], 0
        for count in self._bucket_counts:
            running += count
            cumulative.append(running)
        return cumulative

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "type": "histogram",
                "count": self._count,
                "total": self._total,
                "min": self._min,
                "max": self._max,
                "mean": self.mean,
                "samples": list(self._samples),
                "truncated": self._count > len(self._samples),
                "bucket_bounds": list(self._bounds),
                "bucket_counts": self._cumulative_counts(),
            }

    def reset(self) -> None:
        with self._lock:
            self._samples = []
            self._count = 0
            self._total = 0.0
            self._min = None
            self._max = None
            self._bucket_counts = [0] * (len(self._bounds) + 1)


class MetricsRegistry:
    """A named, thread-safe collection of instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, factory: type) -> Any:
        # Instruments are never unregistered, so a hit needs no lock.
        instrument = self._instruments.get(name)
        if type(instrument) is factory:
            return instrument
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory(name)
                self._instruments[name] = instrument
            elif not isinstance(instrument, factory):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {factory.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create a histogram.

        *buckets* applies only on first registration (the instrument's
        boundaries are fixed for its lifetime, as in Prometheus).
        """
        instrument = self._instruments.get(name)
        if type(instrument) is Histogram:
            return instrument
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Histogram(name, buckets=buckets)
                self._instruments[name] = instrument
            elif not isinstance(instrument, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not Histogram"
                )
            return instrument

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Freeze every instrument's state into plain dicts."""
        with self._lock:
            instruments = dict(self._instruments)
        return {name: instruments[name].snapshot() for name in sorted(instruments)}

    def reset(self) -> None:
        """Zero every instrument (instruments stay registered)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for instrument in instruments:
            instrument.reset()


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the hot paths record into."""
    return _DEFAULT_REGISTRY


#: The instrument names the instrumented layers record, so a snapshot can
#: pre-register them and show zeros instead of omitting untouched layers
#: (an oracle run never exercises the RWL, but its overhead line should
#: still appear in ``--metrics`` output).
STANDARD_METRICS = (
    ("counter", "engine.runs"),
    ("counter", "engine.rounds"),
    ("counter", "engine.questions_posted"),
    ("counter", "engine.answers_resolved"),
    ("histogram", "engine.candidates_after"),
    ("counter", "rwl.batches"),
    ("counter", "rwl.distinct_questions"),
    ("counter", "rwl.questions_posted"),
    ("counter", "rwl.cycle_repairs"),
    ("counter", "rwl.majority_flips"),
    ("counter", "service.queries_admitted"),
    ("counter", "service.queries_completed"),
    ("counter", "service.queries_degraded"),
    ("counter", "service.queries_shed"),
    ("counter", "service.rounds"),
    ("counter", "service.questions_posted"),
    ("counter", "service.plan_cache.hits"),
    ("counter", "service.plan_cache.misses"),
    ("histogram", "service.query_latency"),
    ("histogram", "service.queue_wait"),
    ("histogram", "service.round_latency"),
    ("gauge", "service.queue_depth"),
    ("gauge", "service.active_queries"),
    ("gauge", "service.queue_wait_mean"),
    ("counter", "service.checkpoints"),
    ("counter", "service.recoveries"),
    ("counter", "circuit.opened"),
    ("counter", "circuit.closed"),
    ("counter", "circuit.deferred_rounds"),
    ("counter", "circuit.blocked_posts"),
    ("counter", "circuit.probes"),
    ("counter", "platform.batches_posted"),
    ("counter", "platform.questions_posted"),
    ("counter", "platform.workers_serviced"),
    ("counter", "tdp.solver_calls"),
    ("counter", "tdp.frontier_points"),
    ("histogram", "time.tdp.solve"),
    ("counter", "tdp_memo.solver_calls"),
    ("counter", "tdp_memo.states_visited"),
    ("counter", "tdp_memo.memo_hits"),
    ("counter", "tdp_memo.memo_misses"),
    ("histogram", "time.tdp_memo.solve"),
    # Solver profiling counters (repro.obs.profiling); published only
    # when a profiled() block ran, pre-declared so exports show zeros.
    ("counter", "solver.frontier.solves"),
    ("counter", "solver.frontier.rows"),
    ("counter", "solver.frontier.cells"),
    ("counter", "solver.frontier.candidates"),
    ("counter", "solver.frontier.points"),
    ("counter", "solver.memo.solves"),
    ("counter", "solver.memo.hits"),
    ("counter", "solver.memo.misses"),
    ("counter", "solver.plan_cache.keys_built"),
    ("counter", "solver.plan_cache.hits"),
    ("counter", "solver.plan_cache.misses"),
    # Deadline enforcement, hedged posting and brownout (repro.service
    # .deadline / the router); pre-declared so exports show zeros.
    ("counter", "deadline.met"),
    ("counter", "deadline.degraded"),
    ("counter", "deadline.shed"),
    ("counter", "deadline.exceeded"),
    ("counter", "deadline.replans"),
    ("counter", "hedge.posts"),
    ("counter", "hedge.wins"),
    ("counter", "hedge.waste"),
    ("counter", "brownout.transitions"),
    ("gauge", "brownout.state"),
    ("counter", "alerts.fired"),
    ("counter", "alerts.resolved"),
    ("gauge", "alerts.active"),
) + tuple(
    # Per-component latency attribution histograms — one labeled series
    # per component; must mirror repro.obs.attribution.COMPONENTS (the
    # obs test suite asserts the two stay in sync).
    ("histogram", labeled_name("service.latency_component", {"component": c}))
    for c in (
        "queue_wait", "round_post", "retry", "defer", "outage", "stall",
        "hedge",
    )
)


def declare_standard_metrics(registry: Optional[MetricsRegistry] = None) -> None:
    """Pre-register the standard instruments on *registry* (default: global)."""
    registry = registry if registry is not None else get_registry()
    for instrument_type, name in STANDARD_METRICS:
        getattr(registry, instrument_type)(name)


def render_snapshot(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Format a registry snapshot as an aligned human-readable block."""
    if not snapshot:
        return "(no metrics recorded)"
    width = max(len(name) for name in snapshot)
    lines = []
    for name, state in snapshot.items():
        if state["type"] == "histogram":
            if state["count"]:
                detail = (
                    f"count={state['count']} mean={state['mean']:.4g} "
                    f"min={state['min']:.4g} max={state['max']:.4g}"
                )
                p50 = snapshot_percentile(state, 50)
                p95 = snapshot_percentile(state, 95)
                if p50 is not None and p95 is not None:
                    detail += f" p50={p50:.4g} p95={p95:.4g}"
                samples = state["samples"]
                if samples and len(samples) <= 16:
                    rendered = ", ".join(f"{s:.4g}" for s in samples)
                    detail += f" [{rendered}]"
                if state.get("truncated"):
                    detail += (
                        f" (truncated: first {len(samples)} samples kept, "
                        f"percentiles bucket-estimated)"
                    )
            else:
                detail = "count=0"
            lines.append(f"{name:<{width}}  {detail}")
        else:
            value = state["value"]
            rendered = "-" if value is None else f"{value:g}"
            lines.append(f"{name:<{width}}  {rendered}")
    return "\n".join(lines)
