"""Deterministic causal spans over the tracer pipeline.

A *span* is an interval of simulated time with a name, an owner query and
a parent — together they form the causal tree

    query -> plan -> round -> batch -> retry / defer

for the multi-query service, and ``run -> round -> attempt`` for the
single-query engines.  Spans ride on the existing event pipeline as
:class:`~repro.obs.events.SpanOpened` / :class:`~repro.obs.events.SpanClosed`
pairs, so a ``--trace`` JSONL file keeps its crash-readable append-only
shape and the trace writer needs no changes.

Two properties are deliberate:

* **Determinism.**  Span ids are structural — built from stable
  coordinates such as ``(query_id, round_index, tick)`` — and every
  timestamp in a payload is the simulated tick clock.  Two runs of the
  same workload (or a run and its journal-recovered replay) emit
  identical span trees; ``tests/service/test_span_recovery.py`` pins
  that down.
* **Zero cost when disabled.**  Emitters guard on ``tracer.enabled``;
  under the default ``NULL_TRACER`` no span objects are constructed.

The ambient *span scope* (a contextvar, mirroring
:func:`repro.obs.use_tracer`) lets deep layers that never see the
scheduler — the RWL, :class:`~repro.crowd.faults.FaultyPlatform`, the
circuit breaker — tag their events with the enclosing span id and anchor
their local relative clocks onto the global simulated clock.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.obs.events import SpanClosed, SpanOpened, TraceRecord
from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class SpanContext:
    """The ambient span a deeper layer is running under.

    Attributes:
        span_id: enclosing span's id.
        base_time: simulated-clock seconds at the scope's start; layers
            that track *local* elapsed time (the RWL's per-batch latency
            accumulator) add it to place their sub-spans on the global
            clock.
    """

    span_id: str
    base_time: float = 0.0


_SCOPE: ContextVar[Optional[SpanContext]] = ContextVar(
    "repro_span_scope", default=None
)


@contextmanager
def span_scope(span_id: str, base_time: float = 0.0) -> Iterator[SpanContext]:
    """Make ``span_id`` the ambient parent span for the ``with`` body."""
    context = SpanContext(span_id=span_id, base_time=base_time)
    token = _SCOPE.set(context)
    try:
        yield context
    finally:
        _SCOPE.reset(token)


def current_span() -> Optional[SpanContext]:
    """The ambient span scope, or ``None`` outside any scope."""
    return _SCOPE.get()


def current_span_id() -> str:
    """The ambient span id, ``""`` outside any scope (event-field form)."""
    context = _SCOPE.get()
    return context.span_id if context is not None else ""


def open_span(
    tracer: Tracer,
    span_id: str,
    name: str,
    *,
    start: float,
    parent_id: Optional[str] = None,
    query_id: int = -1,
    detail: str = "",
) -> None:
    """Emit a :class:`SpanOpened` stamped at simulated time *start*."""
    tracer.emit(
        SpanOpened(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start=start,
            query_id=query_id,
            detail=detail,
        ),
        sim_time=start,
    )


def close_span(
    tracer: Tracer, span_id: str, *, end: float, status: str = "ok"
) -> None:
    """Emit a :class:`SpanClosed` stamped at simulated time *end*."""
    tracer.emit(SpanClosed(span_id=span_id, end=end, status=status), sim_time=end)


def emit_span(
    tracer: Tracer,
    span_id: str,
    name: str,
    *,
    start: float,
    end: float,
    parent_id: Optional[str] = None,
    query_id: int = -1,
    detail: str = "",
    status: str = "ok",
) -> None:
    """Emit an already-finished (leaf) span as an open/close pair."""
    open_span(
        tracer,
        span_id,
        name,
        start=start,
        parent_id=parent_id,
        query_id=query_id,
        detail=detail,
    )
    close_span(tracer, span_id, end=end, status=status)


# ----------------------------------------------------------------------
# Trace-side reassembly
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One reassembled span of a trace (see :func:`assemble_spans`).

    ``end``/``status`` stay ``None`` for spans whose close never made it
    into the trace (a crash mid-span) — renderers mark those ``open``.
    """

    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    query_id: int = -1
    detail: str = ""
    end: Optional[float] = None
    status: Optional[str] = None
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> Optional[float]:
        """Simulated seconds the span covered, ``None`` while open."""
        return None if self.end is None else self.end - self.start


def assemble_spans(records: Iterable[TraceRecord]) -> Dict[str, Span]:
    """Rebuild the span forest of a trace, keyed by span id.

    Tolerant by design — traces are read after crashes and recoveries:

    * an unmatched :class:`SpanClosed` (its open predates a recovery
      snapshot) creates a stub span with name ``"?"`` and the close time
      as its start;
    * a duplicate open keeps the first payload; a duplicate close keeps
      the last (recovery replays converge on the final state).

    Children lists are ordered by ``(start, arrival)``.
    """
    spans: Dict[str, Span] = {}
    order: Dict[str, int] = {}
    for record in records:
        event = record.event
        if isinstance(event, SpanOpened):
            if event.span_id not in spans:
                spans[event.span_id] = Span(
                    span_id=event.span_id,
                    parent_id=event.parent_id,
                    name=event.name,
                    start=event.start,
                    query_id=event.query_id,
                    detail=event.detail,
                )
                order[event.span_id] = len(order)
        elif isinstance(event, SpanClosed):
            span = spans.get(event.span_id)
            if span is None:
                span = Span(
                    span_id=event.span_id,
                    parent_id=None,
                    name="?",
                    start=event.end,
                )
                spans[event.span_id] = span
                order[event.span_id] = len(order)
            span.end = event.end
            span.status = event.status
    for span in spans.values():
        if span.parent_id is not None:
            parent = spans.get(span.parent_id)
            if parent is not None:
                parent.children.append(span)
    for span in spans.values():
        span.children.sort(key=lambda s: (s.start, order[s.span_id]))
    return spans


def span_roots(spans: Dict[str, Span]) -> List[Span]:
    """The forest's roots (no parent, or parent missing from the trace)."""
    roots = [
        span
        for span in spans.values()
        if span.parent_id is None or span.parent_id not in spans
    ]
    roots.sort(key=lambda s: (s.start, s.span_id))
    return roots


def render_span_tree(span: Span, indent: str = "") -> List[str]:
    """ASCII-render one span subtree (``tdp-repro explain --tree``)."""
    if span.end is None:
        timing = f"t={span.start:g}s (open)"
    else:
        timing = f"t={span.start:g}s +{span.end - span.start:g}s"
    status = "" if span.status in (None, "ok") else f" [{span.status}]"
    detail = f" ({span.detail})" if span.detail else ""
    lines = [f"{indent}{span.name} <{span.span_id}> {timing}{status}{detail}"]
    for child in span.children:
        lines.extend(render_span_tree(child, indent + "  "))
    return lines


def spans_for_query(spans: Dict[str, Span], query_id: int) -> List[Span]:
    """All spans owned by *query_id*, in start order."""
    owned = [s for s in spans.values() if s.query_id == query_id]
    owned.sort(key=lambda s: (s.start, s.span_id))
    return owned


__all__ = [
    "Span",
    "SpanContext",
    "assemble_spans",
    "close_span",
    "current_span",
    "current_span_id",
    "emit_span",
    "open_span",
    "render_span_tree",
    "span_roots",
    "span_scope",
    "spans_for_query",
]
