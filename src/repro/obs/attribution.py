"""Per-query latency attribution: waterfalls whose parts sum to the whole.

The scheduler tiles every finished query's lifetime ``[arrival,
completion]`` with non-overlapping, gap-free *chunks*, each labelled with
the component that consumed that stretch of simulated time:

========== =========================================================
component  meaning
========== =========================================================
queue_wait arrival until the query's first packed round
round_post a shared platform round the query's batch rode on
retry      a shared round re-running questions the query had lost
defer      the circuit breaker parked the whole scheduler
outage     a shared round the platform ate entirely
stall      runnable but no question posted (backpressure / capacity)
hedge      a shared round whose chunk was mirrored to a hedge backend
========== =========================================================

Because chunks are stored as *absolute* simulated timestamps and tile the
interval exactly (each chunk starts where the previous ended), the
component durations provably sum to the end-to-end latency — the same
telescoping sum the scheduler reports as ``QueryResult.latency``.  The
hypothesis suite (``tests/service/test_attribution_property.py``) checks
this exactly, faults and breaker trips included.

Chunks double as leaf spans in the causal tree (:mod:`repro.obs.spans`):
the leaf span *name* is the component, so :func:`waterfalls_from_records`
can rebuild every waterfall from a ``--trace`` JSONL file alone — that is
what ``tdp-repro explain`` renders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.obs.events import TraceRecord
from repro.obs.spans import Span, assemble_spans
from repro.obs.stats import percentile

#: Attribution components in canonical (waterfall) order.
COMPONENTS: Tuple[str, ...] = (
    "queue_wait",
    "round_post",
    "retry",
    "defer",
    "outage",
    "stall",
    "hedge",
)

_COMPONENT_SET = frozenset(COMPONENTS)


def component_metric(component: str) -> str:
    """Registry name of a component's latency histogram (labeled series)."""
    from repro.obs.metrics import labeled_name

    return labeled_name("service.latency_component", {"component": component})


@dataclass(frozen=True)
class Chunk:
    """One attributed stretch of a query's lifetime (absolute sim time)."""

    component: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class QueryWaterfall:
    """A finished query's fully-attributed timeline.

    Attributes:
        query_id: the query.
        start: arrival time (simulated seconds).
        end: completion time; ``None`` when the trace ended mid-flight.
        status: terminal span status (``"ok"``/``"degraded"``), ``None``
            while open.
        chunks: the tiling, in start order.
    """

    query_id: int
    start: float
    end: Optional[float]
    status: Optional[str]
    chunks: Tuple[Chunk, ...]

    @property
    def total(self) -> Optional[float]:
        """End-to-end latency — the *same float expression* the scheduler
        uses (``end - start``), so equality with ``QueryResult.latency``
        is exact, not approximate."""
        return None if self.end is None else self.end - self.start

    @property
    def chunk_sum(self) -> Optional[float]:
        """Total chunk time, accumulated exactly (``fsum`` over signed
        endpoints, not over per-chunk differences).  When
        :meth:`validate` passes, interior boundaries cancel bitwise and
        the exact sum telescopes to ``end - start`` — so this equals
        :attr:`total` with ``==``, never ``approx``.  Per-chunk
        ``duration`` values each round once and may lose the last bit."""
        if self.end is None:
            return None
        return math.fsum(
            value for c in self.chunks for value in (c.end, -c.start)
        )

    def components(self) -> Dict[str, float]:
        """Seconds per component, canonical order, zero entries omitted."""
        totals: Dict[str, float] = {}
        for component in COMPONENTS:
            seconds = math.fsum(
                c.duration for c in self.chunks if c.component == component
            )
            if seconds:
                totals[component] = seconds
        return totals

    def validate(self) -> None:
        """Check the tiling invariant; raise ``InvalidParameterError`` if
        the chunks do not exactly tile ``[start, end]``."""
        if self.end is None:
            raise InvalidParameterError(
                f"query {self.query_id} waterfall is still open"
            )
        if not self.chunks:
            if self.end != self.start:
                raise InvalidParameterError(
                    f"query {self.query_id} has latency "
                    f"{self.end - self.start} but no chunks"
                )
            return
        cursor = self.start
        for chunk in self.chunks:
            if chunk.start != cursor:
                raise InvalidParameterError(
                    f"query {self.query_id}: chunk {chunk.component} starts "
                    f"at {chunk.start}, expected {cursor}"
                )
            if chunk.end < chunk.start:
                raise InvalidParameterError(
                    f"query {self.query_id}: chunk {chunk.component} "
                    f"ends before it starts"
                )
            cursor = chunk.end
        if cursor != self.end:
            raise InvalidParameterError(
                f"query {self.query_id}: chunks end at {cursor}, "
                f"query ended at {self.end}"
            )


def chunks_from_spans(spans: Mapping[str, Span], query_id: int) -> List[Chunk]:
    """The attribution leaves owned by *query_id*, in start order."""
    chunks = [
        Chunk(component=s.name, start=s.start, end=s.end)
        for s in spans.values()
        if s.query_id == query_id and s.name in _COMPONENT_SET
        and s.end is not None
    ]
    chunks.sort(key=lambda c: (c.start, c.end))
    return chunks


def waterfalls_from_records(
    records: Iterable[TraceRecord],
) -> Dict[int, QueryWaterfall]:
    """Rebuild every query waterfall present in a trace."""
    spans = assemble_spans(records)
    waterfalls: Dict[int, QueryWaterfall] = {}
    for span in spans.values():
        if span.name != "query":
            continue
        query_id = span.query_id
        waterfalls[query_id] = QueryWaterfall(
            query_id=query_id,
            start=span.start,
            end=span.end,
            status=span.status,
            chunks=tuple(chunks_from_spans(spans, query_id)),
        )
    return waterfalls


# ----------------------------------------------------------------------
# Aggregation (ServiceReport / metrics)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ComponentStat:
    """Aggregate of one component across a service run's queries.

    Attributes:
        component: attribution component name.
        total: summed simulated seconds across queries.
        p50: median per-query seconds (queries with the component).
        p95: 95th-percentile per-query seconds.
        queries: queries that spent any time in the component.
        share: fraction of all attributed seconds (0..1).
    """

    component: str
    total: float
    p50: float
    p95: float
    queries: int
    share: float


RawChunks = Mapping[int, Sequence[Tuple[str, float, float]]]


def summarize_attribution(per_query: RawChunks) -> Tuple[ComponentStat, ...]:
    """Aggregate raw ``(component, start, end)`` chunk lists per query.

    Components nobody spent time in are omitted; ``share`` is relative to
    the grand total so the stats read as a percentage breakdown.
    """
    by_component: Dict[str, List[float]] = {}
    for chunks in per_query.values():
        totals: Dict[str, float] = {}
        for component, start, end in chunks:
            totals[component] = totals.get(component, 0.0) + (end - start)
        for component, seconds in totals.items():
            by_component.setdefault(component, []).append(seconds)
    grand_total = math.fsum(
        seconds for values in by_component.values() for seconds in values
    )
    stats: List[ComponentStat] = []
    for component in COMPONENTS:
        values = by_component.get(component)
        if not values:
            continue
        total = math.fsum(values)
        stats.append(
            ComponentStat(
                component=component,
                total=total,
                p50=float(percentile(values, 50)),
                p95=float(percentile(values, 95)),
                queries=len(values),
                share=total / grand_total if grand_total else 0.0,
            )
        )
    return tuple(stats)


def render_attribution(stats: Sequence[ComponentStat]) -> List[str]:
    """Text table of an aggregated attribution (report / CLI)."""
    if not stats:
        return ["latency attribution: (no attributed queries)"]
    lines = ["latency attribution (simulated seconds):"]
    width = max(len(s.component) for s in stats)
    for s in stats:
        lines.append(
            f"  {s.component:<{width}}  total {s.total:>10.1f}  "
            f"p50 {s.p50:>8.1f}  p95 {s.p95:>8.1f}  "
            f"n={s.queries:<4d} {s.share * 100:5.1f}%"
        )
    return lines


def render_waterfall(waterfall: QueryWaterfall, width: int = 30) -> str:
    """ASCII waterfall of one query (the ``explain`` rendering)."""
    lines: List[str] = []
    total = waterfall.total
    if total is None:
        lines.append(
            f"query {waterfall.query_id}: still in flight "
            f"(arrived t={waterfall.start:g}s; trace ends mid-query)"
        )
    else:
        status = waterfall.status or "ok"
        lines.append(
            f"query {waterfall.query_id}: {status} in {total:g}s "
            f"(arrived t={waterfall.start:g}s, finished "
            f"t={waterfall.end:g}s)"
        )
    components = waterfall.components()
    if components and total:
        name_width = max(len(name) for name in components)
        for name, seconds in components.items():
            share = seconds / total
            bar = "#" * max(1, round(share * width))
            lines.append(
                f"  {name:<{name_width}}  {bar:<{width}}  "
                f"{seconds:>10.1f}s  {share * 100:5.1f}%"
            )
    if waterfall.chunks:
        lines.append("  timeline:")
        for chunk in waterfall.chunks:
            lines.append(
                f"    t={chunk.start:<10g} {chunk.component:<10} "
                f"+{chunk.duration:g}s"
            )
    return "\n".join(lines)


__all__ = [
    "COMPONENTS",
    "Chunk",
    "ComponentStat",
    "QueryWaterfall",
    "chunks_from_spans",
    "component_metric",
    "render_attribution",
    "render_waterfall",
    "summarize_attribution",
    "waterfalls_from_records",
]
