"""repro.obs — observability: tracing, metrics and profiling hooks.

Three cooperating pieces:

* a structured-event **tracer** (:mod:`repro.obs.tracer`,
  :mod:`repro.obs.events`) — typed events with wall-clock and
  simulated-clock timestamps, kept in memory or streamed to a JSONL
  file as they happen, so a crashed run keeps a readable trace prefix
  (:mod:`repro.obs.export` owns the line format), and summarizable
  into a per-round latency/budget breakdown (:mod:`repro.obs.report`);
* a process-wide **metrics registry** (:mod:`repro.obs.metrics`) —
  counters, gauges and histograms with ``snapshot()``/``reset()``;
* **profiling spans** (:func:`repro.obs.timed`) — a context
  manager/decorator that feeds both of the above;
* **causal spans** (:mod:`repro.obs.spans`) — deterministic
  ``query -> plan -> round -> attempt`` trees riding the same event
  pipeline, plus per-query **latency attribution**
  (:mod:`repro.obs.attribution`) whose components provably sum to the
  end-to-end latency (``tdp-repro explain``);
* **solver profiling counters** (:mod:`repro.obs.profiling`) — opt-in
  work counters for the tDP solvers and the plan cache
  (``tdp-repro profile``), free when disabled;
* **OpenMetrics export** (:mod:`repro.obs.openmetrics`) — render any
  metrics snapshot in the Prometheus text exposition format;
* a **terminal dashboard** (:mod:`repro.obs.dashboard`) — sparkline view
  of per-tick scheduler telemetry (``tdp-repro serve --dashboard``,
  ``tdp-repro top``).

The engine, allocators, Reliable Worker Layer and simulated platform are
pre-instrumented; by default they see the no-op :data:`NULL_TRACER`, so
uninstrumented use costs one boolean check per potential event.  Turn
tracing on by installing a :class:`RecordingTracer` as the ambient
tracer::

    from repro import obs

    tracer = obs.RecordingTracer()  # path="trace.jsonl" streams instead
    with obs.use_tracer(tracer):
        engine.run(truth, allocation)
    print(obs.render_trace_report(tracer.records))
    print(obs.render_snapshot(obs.get_registry().snapshot()))

or from the CLI: ``tdp-repro solve --trace out.jsonl --metrics``.
"""

from repro.obs.attribution import (
    COMPONENTS,
    Chunk,
    ComponentStat,
    QueryWaterfall,
    render_attribution,
    render_waterfall,
    summarize_attribution,
    waterfalls_from_records,
)
from repro.obs.events import (
    AlertFired,
    AlertResolved,
    AnswersReceived,
    BatchRetried,
    CandidateSetShrunk,
    DPTableBuilt,
    FaultInjected,
    QueryAdmitted,
    QueryCompleted,
    QueryScheduled,
    QueryShed,
    RWLRetry,
    RoundPosted,
    RunFinished,
    RunStarted,
    SpanClosed,
    SpanCompleted,
    SpanOpened,
    TraceEvent,
    TraceRecord,
    WorkerServiced,
    event_from_dict,
)
from repro.obs.flight import (
    BUNDLE_MANIFEST,
    FlightRecorder,
    validate_bundle,
    write_bundle,
)
from repro.obs.slo import (
    ALERT_SEVERITIES,
    SLO_OBJECTIVES,
    AlertTransition,
    BurnRateRule,
    HealthStatus,
    SLOConfig,
    SLOEngine,
    SLOTarget,
    ThresholdRule,
    default_slo_config,
    slo_config_from_dict,
)
from repro.obs.dashboard import (
    DashboardRenderer,
    render_final,
    render_frame,
    sparkline,
)
from repro.obs.export import read_jsonl
from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    declare_standard_metrics,
    get_registry,
    render_snapshot,
    snapshot_percentile,
)
from repro.obs.openmetrics import render_openmetrics, write_openmetrics
from repro.obs.profiling import (
    PROFILER,
    SolverProfiler,
    profiled,
    render_profile,
)
from repro.obs.report import render_trace_report, report_file
from repro.obs.spans import (
    Span,
    SpanContext,
    assemble_spans,
    close_span,
    current_span,
    current_span_id,
    emit_span,
    open_span,
    render_span_tree,
    span_roots,
    span_scope,
    spans_for_query,
)
from repro.obs.stats import escalation_step, nearest_rank, percentile
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    Tracer,
    current_tracer,
    timed,
    use_tracer,
)

__all__ = [
    # events
    "TraceEvent",
    "TraceRecord",
    "RunStarted",
    "RoundPosted",
    "AnswersReceived",
    "CandidateSetShrunk",
    "RunFinished",
    "QueryAdmitted",
    "QueryScheduled",
    "QueryCompleted",
    "QueryShed",
    "RWLRetry",
    "BatchRetried",
    "WorkerServiced",
    "FaultInjected",
    "DPTableBuilt",
    "SpanCompleted",
    "SpanOpened",
    "SpanClosed",
    "AlertFired",
    "AlertResolved",
    "event_from_dict",
    # spans
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
    # attribution
    "COMPONENTS",
    "Chunk",
    "ComponentStat",
    "QueryWaterfall",
    "render_attribution",
    "render_waterfall",
    "summarize_attribution",
    "waterfalls_from_records",
    # profiling
    "PROFILER",
    "SolverProfiler",
    "profiled",
    "render_profile",
    # tracer
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RecordingTracer",
    "current_tracer",
    "use_tracer",
    "timed",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKET_BOUNDS",
    "get_registry",
    "declare_standard_metrics",
    "render_snapshot",
    "snapshot_percentile",
    # stats
    "escalation_step",
    "nearest_rank",
    "percentile",
    # slo / alerts
    "ALERT_SEVERITIES",
    "SLO_OBJECTIVES",
    "SLOTarget",
    "BurnRateRule",
    "ThresholdRule",
    "SLOConfig",
    "SLOEngine",
    "AlertTransition",
    "HealthStatus",
    "default_slo_config",
    "slo_config_from_dict",
    # flight recorder
    "BUNDLE_MANIFEST",
    "FlightRecorder",
    "write_bundle",
    "validate_bundle",
    # openmetrics
    "render_openmetrics",
    "write_openmetrics",
    # dashboard
    "sparkline",
    "render_frame",
    "render_final",
    "DashboardRenderer",
    # export / report
    "read_jsonl",
    "render_trace_report",
    "report_file",
]
