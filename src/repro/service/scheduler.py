"""The concurrent multi-query MAX scheduler.

The paper optimizes latency for *one* MAX query; a deployment runs many at
once against the same crowd, where one query's batch sizes change every
other query's latency.  :class:`MaxScheduler` is that missing layer: it
admits :class:`~repro.service.query.QuerySpec` s (admission control with
shed/defer overload behaviour), plans each one with tDP through a shared
:class:`~repro.service.plan_cache.PlanCache`, drives one
:class:`~repro.engine.session.MaxSession` per query (its candidates and
answers kept as arrays, its evidence graph built only for a scored exit
or a snapshot), and each *tick*
coalesces the pending rounds of all runnable queries — in the order a
:class:`~repro.service.policies.BatchingPolicy` dictates, under a shared
in-flight question cap — into one shared round.  A
:class:`~repro.crowd.multibackend.CapacityAwareRouter` posts that round
through each backend's Reliable Worker Layer; a single-platform run is a
one-backend ("solo") fleet, so every run takes the same path.

Concurrent queries coexist on one platform by element-space slicing: query
``i``'s local elements ``0 .. n_i - 1`` map onto a disjoint range of the
platform's global ground truth, so a single shared batch can carry
questions from many queries and the answers route back unambiguously.
A tick's shared round is one ``(k, 2)`` array: the scheduled queries'
unanswered rows, concatenated and offset into the global space in one
add, go to the router with one ``(query_id, rows)`` per query.

Everything is deterministic given the seed: the ground truth, worker pool,
fault stream, RWL tie-breaks and the selector stream all derive from
independent seeded streams, and every iteration order in the scheduler is
total.  Every session the scheduler creates draws its tournaments from the
one selector stream, in the session order of each tick's
:func:`~repro.engine.session.open_rounds` pass.  Two runs of the same
workload under the same seed are bit-identical — including under a fault
profile.
"""

from __future__ import annotations

import dataclasses
import logging
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.allocation import Allocation
from repro.core.latency import LatencyFunction
from repro.core.registry import allocator_by_name
from repro.crowd.breaker import BreakerState, CircuitBreakerConfig
from repro.crowd.error_models import ErrorModel
from repro.crowd.faults import FaultProfile, RetryPolicy
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.multibackend import (
    ROUTING_POLICIES,
    BackendSpec,
    CapacityAwareRouter,
    HedgeConfig,
    build_backends,
    resolve_fleet,
)
from repro.crowd.workers import WorkerPoolConfig
from repro.engine.session import MaxSession, open_rounds, submit_rounds
from repro.errors import InconsistentAnswersError, InvalidParameterError
from repro.obs.attribution import component_metric, summarize_attribution
from repro.obs.events import (
    AlertFired,
    AlertResolved,
    BrownoutStateChanged,
    DeadlineExceeded,
    QueryAdmitted,
    QueryCompleted,
    QueryScheduled,
    QueryShed,
)
from repro.obs.flight import FlightRecorder, write_bundle
from repro.obs.metrics import get_registry, labeled_name
from repro.obs.profiling import PROFILER
from repro.obs.slo import AlertTransition, SLOConfig, SLOEngine
from repro.obs.spans import close_span, emit_span, open_span, span_scope
from repro.obs.tracer import Tracer, current_tracer
from repro.selection.registry import selector_by_name
from repro.selection.scoring import best_scored, most_wins
from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.service.deadline import (
    DEADLINE_DEGRADED,
    DEADLINE_EXCEEDED,
    DEADLINE_MET,
    DEADLINE_SHED,
    BrownoutConfig,
    BrownoutController,
    LatencyBudget,
    backlog_queue_wait_p95,
)
from repro.service.plan_cache import PlanCache, PlanKey
from repro.service.policies import policy_by_name
from repro.service.query import QueryResult, QuerySpec, QueryState
from repro.service.report import ServiceReport
from repro.service.telemetry import TICK_HISTORY_LIMIT, TickSample
from repro.types import Element

logger = logging.getLogger(__name__)

#: The registry counter each terminal state increments.
_STATE_COUNTERS = {
    QueryState.COMPLETED: "service.queries_completed",
    QueryState.DEGRADED: "service.queries_degraded",
    QueryState.SHED: "service.queries_shed",
}


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the multi-query scheduler.

    Attributes:
        policy: batching-policy name (``fair``/``fifo``/``priority``).
        allocator: budget-allocator name used for planning (default tDP).
        selector: question-selector name each session runs with.
        repetition: RWL per-question repetition factor for posting.
        max_inflight_questions: cap on distinct questions per shared round
            (backpressure: whole per-query rounds that do not fit wait).
        max_active_queries: concurrent running sessions (admission bound).
        max_queue_depth: admitted-but-waiting queries (admission bound).
        overload_policy: ``"shed"`` or ``"defer"`` on a full queue.
        max_round_attempts: shared rounds a query's single allocation
            round may span (fault re-posts) before the query degrades.
        routing: routing-policy name the router splits each round by
            (``latency``/``least-loaded``/``weighted-price``); a solo
            fleet has nothing to split, so the policy never matters.
        default_deadline: enforced end-to-end latency budget (seconds)
            applied to every query whose spec carries no ``deadline`` of
            its own; ``None`` disables deadline enforcement for such
            queries.
        hedge: enable hedged posting on the router (requires
            ``backends``); see
            :class:`~repro.crowd.multibackend.HedgeConfig`.
        brownout: enable the overload brownout controller; see
            :class:`~repro.service.deadline.BrownoutConfig`.
        slo: arm the SLO engine and flight recorder; see
            :class:`~repro.obs.slo.SLOConfig`.  ``None`` (the default)
            keeps the scheduler bit-identical to the SLO-less one.
    """

    policy: str = "fair"
    allocator: str = "tDP"
    selector: str = "Tournament"
    repetition: int = 1
    max_inflight_questions: int = 2000
    max_active_queries: int = 16
    max_queue_depth: int = 64
    overload_policy: str = "defer"
    max_round_attempts: int = 8
    routing: str = "latency"
    default_deadline: Optional[float] = None
    hedge: Optional[HedgeConfig] = None
    brownout: Optional[BrownoutConfig] = None
    slo: Optional[SLOConfig] = None

    def __post_init__(self) -> None:
        if self.routing not in ROUTING_POLICIES:
            raise InvalidParameterError(
                f"unknown routing policy {self.routing!r}; available: "
                f"{', '.join(ROUTING_POLICIES)}"
            )
        if self.default_deadline is not None and not self.default_deadline > 0:
            raise InvalidParameterError(
                f"default_deadline must be > 0 seconds, "
                f"got {self.default_deadline}"
            )
        if self.repetition < 1:
            raise InvalidParameterError(
                f"repetition must be >= 1, got {self.repetition}"
            )
        if self.max_inflight_questions < 1:
            raise InvalidParameterError(
                f"max_inflight_questions must be >= 1, got "
                f"{self.max_inflight_questions}"
            )
        if self.max_round_attempts < 1:
            raise InvalidParameterError(
                f"max_round_attempts must be >= 1, got {self.max_round_attempts}"
            )
        # Delegate the admission bounds to AdmissionConfig's validation.
        self.admission_config()

    def admission_config(self) -> AdmissionConfig:
        """The admission-control slice of this configuration."""
        return AdmissionConfig(
            max_active_queries=self.max_active_queries,
            max_queue_depth=self.max_queue_depth,
            overload_policy=self.overload_policy,
        )


@dataclass
class ResultTally:
    """Running outcome counts and queue-wait sum over a results list.

    Kept in result order, so the float sum equals a recount of the list
    bit for bit.
    """

    completed: int = 0
    degraded: int = 0
    shed: int = 0
    deadline_met: int = 0
    deadline_breached: int = 0
    wait_total: float = 0.0

    @classmethod
    def of(cls, results: Iterable[QueryResult]) -> "ResultTally":
        tally = cls()
        tally.extend(results)
        return tally

    def extend(self, results: Iterable[QueryResult]) -> None:
        """Count *results*, which follow the ones counted so far."""
        for result in results:
            if result.state is QueryState.COMPLETED:
                self.completed += 1
                self.wait_total += result.queue_wait
            elif result.state is QueryState.DEGRADED:
                self.degraded += 1
                self.wait_total += result.queue_wait
            elif result.state is QueryState.SHED:
                self.shed += 1
            if result.deadline_outcome == DEADLINE_MET:
                self.deadline_met += 1
            elif result.deadline_outcome is not None:
                self.deadline_breached += 1


#: The unanswered rows of a query before its first tick (read-only, shared).
_NO_ROWS = np.empty((0, 2), np.int64)
_NO_ROWS.flags.writeable = False


@dataclass(eq=False)
class ActiveQuery:
    """Scheduler-internal state of one admitted query.

    Queries compare by identity: the scheduler finds and removes them in
    its active and waiting lists, and no two admitted queries are equal.
    """

    spec: QuerySpec
    seq: int  # admission order, the universal deterministic tie-break
    offset: int  # global element ID of the query's local element 0
    session: MaxSession
    plan_cache_hit: bool
    state: QueryState = QueryState.QUEUED
    admitted_time: float = 0.0
    first_scheduled_time: Optional[float] = None
    #: The session's ``(k, 2)`` questions of the open round unanswered
    #: when the tick began, in its local element IDs; rebuilt from the
    #: session every tick, so never journaled.
    unanswered: np.ndarray = field(default_factory=lambda: _NO_ROWS)
    times_scheduled: int = 0
    round_attempts: int = 0
    #: Absolute sim time the query's latency budget expires (None = none).
    deadline_at: Optional[float] = None


#: A query leaving at a call site of :meth:`MaxScheduler._finalize`: its
#: terminal state and the deadline outcome the site decided, if any.
Exit = Tuple[ActiveQuery, QueryState, Optional[str]]


class MaxScheduler:
    """Run a workload of MAX queries on one shared simulated crowd.

    Args:
        specs: the workload; arrival times need not be sorted.
        latency: the latency model used for *planning* (tDP input), and
            the solo backend's predicted ``L(q)`` without ``backends``;
            the executed latency is whatever the crowd simulation measures.
        seed: master seed all randomness derives from.
        config: scheduler tunables (see :class:`ServiceConfig`).
        fault_profile: optional fault injection on the single platform;
            sugar for the ``fault_profile`` of the solo fleet's one
            :class:`~repro.crowd.multibackend.BackendSpec`.
        retry_policy: optional RWL re-post policy for unanswered questions.
        error_model: optional worker error model for the shared platform.
        worker_config: optional worker-pool dynamics.
        breaker_config: enable the platform circuit breaker — rounds are
            deferred while the circuit is open instead of burning retry
            attempts against a platform in a sustained outage.  Sugar for
            the ``breaker`` of the solo fleet's one spec.
        journal: a :class:`~repro.service.journal.SchedulerJournal` to
            write-ahead-log every state change into (crash recovery via
            :func:`~repro.service.journal.recover_scheduler`).
        backends: a federated fleet of
            :class:`~repro.crowd.multibackend.BackendSpec` s; each shared
            round is then split across the fleet by a
            :class:`~repro.crowd.multibackend.CapacityAwareRouter` under
            ``config.routing``.  Mutually exclusive with
            ``fault_profile``/``breaker_config`` (those become
            per-backend fields of the specs); ``retry_policy``,
            ``error_model`` and ``worker_config`` stay fleet-shared.
            Without ``backends`` the run is a solo fleet built by
            :func:`~repro.crowd.multibackend.resolve_fleet`.
    """

    def __init__(
        self,
        specs: Sequence[QuerySpec],
        latency: LatencyFunction,
        seed: int,
        config: Optional[ServiceConfig] = None,
        *,
        fault_profile: Optional[FaultProfile] = None,
        retry_policy: Optional[RetryPolicy] = None,
        error_model: Optional[ErrorModel] = None,
        worker_config: Optional[WorkerPoolConfig] = None,
        breaker_config: Optional[CircuitBreakerConfig] = None,
        journal: Optional[Any] = None,
        backends: Optional[Sequence[BackendSpec]] = None,
    ) -> None:
        if not specs:
            raise InvalidParameterError("the workload must contain >= 1 query")
        ids = [spec.query_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise InvalidParameterError(
                "query_ids must be unique within a workload"
            )
        self.config = config if config is not None else ServiceConfig()
        self.latency = latency
        self.seed = seed
        # Kept verbatim for the journal header, so a recovered scheduler
        # can be constructed with the exact same arguments.
        self._specs: List[QuerySpec] = list(specs)
        self._retry_policy = retry_policy
        self._error_model = error_model
        self._worker_config = worker_config
        if backends is None and self.config.hedge is not None:
            raise InvalidParameterError(
                "hedged posting requires a multi-backend fleet; "
                "pass backends= alongside config.hedge"
            )
        self._backend_specs: List[BackendSpec] = resolve_fleet(
            backends,
            latency=latency,
            fault_profile=fault_profile,
            breaker_config=breaker_config,
        )
        self.plan_cache = PlanCache()
        # Selectors keep no state past __init__, so every session shares one.
        self._selector = selector_by_name(self.config.selector)
        self._policy = policy_by_name(self.config.policy)
        self._allocator = allocator_by_name(self.config.allocator)
        self._admission = AdmissionController(self.config.admission_config())
        # Arrival order (query_id as tie-break) is the admission offer order.
        self._backlog: Deque[QuerySpec] = deque(
            sorted(specs, key=lambda s: (s.arrival_time, s.query_id))
        )
        # Element-space slicing: each query gets a disjoint global range,
        # assigned in arrival order so offsets are workload-deterministic.
        self._offsets: Dict[int, int] = {}
        total = 0
        for spec in self._backlog:
            self._offsets[spec.query_id] = total
            total += spec.n_elements
        self._total_elements = total
        # Independent seeded streams: truth, platform, RWL, faults, selectors.
        self.truth = GroundTruth.random(total, np.random.default_rng((seed, 0)))
        self._selector_rng = np.random.default_rng((seed, 4))
        fleet = build_backends(
            self._backend_specs,
            self.truth,
            seed,
            repetition=self.config.repetition,
            retry_policy=retry_policy,
            error_model=error_model,
            worker_config=worker_config,
        )
        self._router = CapacityAwareRouter(
            fleet, self.config.routing, hedge=self.config.hedge
        )
        self._brownout: Optional[BrownoutController] = (
            BrownoutController(self.config.brownout)
            if self.config.brownout is not None
            else None
        )
        # SLO engine + flight recorder: both exist only when armed, so
        # the disabled tick loop is bit-identical to the SLO-less one.
        self._slo: Optional[SLOEngine] = (
            SLOEngine(self.config.slo)
            if self.config.slo is not None
            else None
        )
        self._flight: Optional[FlightRecorder] = (
            FlightRecorder(self.config.slo.ring)
            if self.config.slo is not None
            else None
        )
        # Burn-rate gauges, resolved lazily on the first armed tick.
        self._slo_gauges: Optional[List[Tuple[str, Any]]] = None
        self._active: List[ActiveQuery] = []
        self._waiting: List[ActiveQuery] = []
        self._results: List[QueryResult] = []
        #: Outcome counts over ``_results``; recomputed on restore.
        self._tally = ResultTally()
        #: Registry work owed since the last :meth:`_flush_metrics`: the
        #: admission counters, and the results from index ``_metered`` on.
        self._owed: Counter[str] = Counter()
        self._metered = 0
        self._next_seq = 0
        self._now = 0.0
        self._ticks = 0
        self._shared_rounds = 0
        self._questions_posted = 0
        #: Per-tick telemetry ring (newest last); the dashboard's feed.
        self.tick_history: Deque[TickSample] = deque(maxlen=TICK_HISTORY_LIMIT)
        self._last_round_latency = 0.0
        self._last_round_questions = 0
        #: Per-query attribution chunks ``(component, start, end)`` in
        #: absolute simulated seconds; populated only while a tracer is
        #: enabled (with tracing off the report stays bit-identical to
        #: the un-instrumented scheduler).
        self._attribution: Dict[int, List[Tuple[str, float, float]]] = {}
        self._journal: Optional[Any] = None
        if journal is not None:
            self.attach_journal(journal)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ticks(self) -> int:
        """Scheduler ticks executed so far (shared rounds + deferrals)."""
        return self._ticks

    @property
    def now(self) -> float:
        """The simulated clock, in seconds."""
        return self._now

    @property
    def drained(self) -> bool:
        """True once every query has left the scheduler."""
        return not (self._backlog or self._active or self._waiting)

    @property
    def selector_rng(self) -> np.random.Generator:
        """The one stream every session of this scheduler selects with."""
        return self._selector_rng

    @property
    def journal(self) -> Optional[Any]:
        """The attached write-ahead journal, if any."""
        return self._journal

    @property
    def router(self) -> CapacityAwareRouter:
        """The router every shared round is posted through."""
        return self._router

    @property
    def brownout(self) -> Optional[BrownoutController]:
        """The overload brownout controller, if one was configured."""
        return self._brownout

    @property
    def slo(self) -> Optional[SLOEngine]:
        """The SLO engine, if one was armed."""
        return self._slo

    @property
    def flight(self) -> Optional[FlightRecorder]:
        """The incident flight recorder, if the SLO layer was armed."""
        return self._flight

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def attach_journal(self, journal: Any) -> None:
        """Attach a write-ahead journal.

        A fresh journal writes its header and an initial snapshot; a
        journal resumed from disk (recovery) continues appending.  Attach
        a fresh journal before the first tick: recovery rebuilds the
        flight ring from the journal's records alone.
        """
        self._journal = journal
        journal.begin(self)

    def run(
        self, on_tick: Optional[Callable[[TickSample], None]] = None
    ) -> ServiceReport:
        """Drain the workload and return the :class:`ServiceReport`.

        Args:
            on_tick: called with the newest :class:`TickSample` after
                every tick (not after pure idle clock jumps) — the live
                dashboard's hook.
        """
        seen_ticks = 0
        while self.step():
            if on_tick is not None and self._ticks != seen_ticks:
                seen_ticks = self._ticks
                on_tick(self.tick_history[-1])
        if self._journal is not None:
            self._journal.complete(self)
        return self._build_report()

    def step(self) -> bool:
        """Execute one scheduler iteration; ``False`` once drained.

        One step is either an idle clock jump to the next arrival, a
        breaker-deferred tick, or a real tick (one shared round routed
        to the fleet).  The crash-injection harness drives this directly
        so kills land exactly on tick boundaries; :meth:`run` is just
        ``while self.step(): pass``.
        """
        if self.drained:
            return False
        if self._brownout is not None:
            self._update_brownout()
        self._admit_due()
        self._promote_waiting()
        self._expire_deadlines()
        # Snapshot: finalizing rebuilds _active.
        active = list(self._active)
        opening = [not q.session.awaiting_answers for q in active]
        open_rounds([q.session for q in active])
        tracer = current_tracer()
        runnable = []
        for query, opened in zip(active, opening):
            if query.session.done:
                # Its selector had nothing left to ask.  Finalized in
                # place, so exits keep the active order.
                self._finalize([(query, QueryState.COMPLETED, None)])
                continue
            self._refresh_round(tracer, query, opened)
            if self._apply_deadline(query):
                runnable.append(query)
        if not runnable:
            self._flush_metrics()
            if self._backlog:
                # Idle: jump the clock to the next arrival.
                self._now = max(self._now, self._backlog[0].arrival_time)
                return True
            # Deadline degradation can empty the active set while queries
            # still wait for a slot; keep stepping so they promote.
            return bool(self._waiting)
        resume_at = self._router.before_round(self._now)
        if resume_at is not None:
            # Every backend's circuit is open: nothing to fail over to,
            # so the whole round defers to the earliest cooldown.
            self._defer_round(runnable, target=resume_at)
        else:
            self._run_tick(runnable)
        self._ticks += 1
        self._flush_metrics()
        self._sample_tick(deferred=resume_at is not None)
        if self._journal is not None:
            self._journal.maybe_snapshot(self)
        return True

    def _defer_round(self, runnable: List[ActiveQuery], target: float) -> None:
        """Skip the shared round while every circuit is open."""
        get_registry().counter("circuit.deferred_rounds").inc()
        self._journal_record(
            "deferred", tick=self._ticks, now=self._now, resume_at=target
        )
        logger.info(
            "circuit open: deferring shared round from t=%.1f to t=%.1f",
            self._now,
            target,
        )
        before = self._now
        self._now = max(self._now, target)
        tracer = current_tracer()
        if tracer.enabled:
            for query in runnable:
                if query.first_scheduled_time is not None:
                    self._add_chunk(tracer, query, "defer", before, self._now)

    def _flush_metrics(self) -> None:
        """Apply the registry updates owed since the last flush, in one pass.

        Admissions and results are counted once per step, not per query.
        The latency and queue-wait histograms observe in result order, so
        their sums equal per-query observation bit for bit.
        """
        results = self._results[self._metered:]
        self._metered = len(self._results)
        owed, self._owed = self._owed, Counter()
        owed.update(_STATE_COUNTERS[result.state] for result in results)
        owed.update(
            f"deadline.{result.deadline_outcome}"
            for result in results
            if result.deadline_outcome is not None
        )
        registry = get_registry()
        for name, count in owed.items():
            registry.counter(name).inc(count)
        finished = [r for r in results if r.state is not QueryState.SHED]
        if finished:
            latency = registry.histogram("service.query_latency")
            wait = registry.histogram("service.queue_wait")
            for result in finished:
                latency.observe(result.latency)
                wait.observe(result.queue_wait)

    def _journal_record(self, record_type: str, **payload: Any) -> None:
        if self._journal is not None:
            self._journal.record(record_type, payload)

    def _record_results(self, results: List[QueryResult]) -> None:
        """Record queries' exits, in order; the journal keeps them as one
        batch."""
        first = len(self._results)
        self._results.extend(results)
        self._tally.extend(results)
        if self._journal is not None:
            self._journal.record_results(first, results)

    # ------------------------------------------------------------------
    # Causal spans + latency attribution (active only while tracing)
    # ------------------------------------------------------------------
    def _add_chunk(
        self,
        tracer: Tracer,
        query: ActiveQuery,
        component: str,
        start: float,
        end: float,
    ) -> None:
        """Attribute ``[start, end]`` of *query*'s lifetime to *component*.

        The chunk doubles as a leaf span (its name is the component) so
        waterfalls are reconstructible from the trace alone.  Zero-length
        chunks are skipped — they contribute nothing and the tiling stays
        contiguous.  Span ids are structural (``q<id>/t<tick>`` — at most
        one chunk per query per tick, plus one ``q<id>/wait``), so a
        journal-recovered run re-emits identical ids.
        """
        if end <= start:
            return
        query_id = query.spec.query_id
        parent = (
            f"q{query_id}/r{query.session.round_index}"
            if query.session.awaiting_answers
            else f"q{query_id}"
        )
        emit_span(
            tracer,
            f"q{query_id}/t{self._ticks}",
            component,
            start=start,
            end=end,
            parent_id=parent,
            query_id=query_id,
        )
        self._attribution.setdefault(query_id, []).append(
            (component, start, end)
        )

    def _emit_wait_chunk(
        self, tracer: Tracer, query: ActiveQuery, end: float
    ) -> None:
        """Attribute arrival-to-first-schedule (or to finalize, for
        queries that never reached the platform) as ``queue_wait``."""
        start = query.spec.arrival_time
        if end <= start:
            return
        query_id = query.spec.query_id
        emit_span(
            tracer,
            f"q{query_id}/wait",
            "queue_wait",
            start=start,
            end=end,
            parent_id=f"q{query_id}",
            query_id=query_id,
        )
        self._attribution.setdefault(query_id, []).append(
            ("queue_wait", start, end)
        )

    def _record_tick_chunks(
        self,
        tracer: Tracer,
        runnable: List[ActiveQuery],
        posted: Dict[int, bool],
        start: float,
        end: float,
        outage: bool,
    ) -> None:
        """Attribute one shared round's duration to every live query.

        *posted* maps each scheduled query that had a question posted to
        whether any of its questions was hedged.  Those queries pay the
        round as ``round_post`` (first attempt), ``retry`` (re-posting
        lost questions), ``hedge`` (their chunk was mirrored to a hedge
        backend) or ``outage``.  Runnable queries with no question posted
        — left out by backpressure, or packed but placed nowhere by the
        router's capacity or probe quotas — pay it as ``stall``.  Queries
        still waiting for their first schedule are covered by their
        ``queue_wait`` chunk instead.
        """
        for query in runnable:
            if query.first_scheduled_time is None:
                continue
            hedged = posted.get(query.spec.query_id)
            if hedged is None:
                component = "stall"
            elif outage:
                component = "outage"
            elif query.round_attempts > 0:
                component = "retry"
            elif hedged:
                component = "hedge"
            else:
                component = "round_post"
            self._add_chunk(tracer, query, component, start, end)

    def _sample_tick(self, deferred: bool) -> None:
        """Record this tick's :class:`TickSample` everywhere it goes."""
        tally = self._tally
        finished = tally.completed + tally.degraded
        sample = TickSample(
            tick=self._ticks,
            now=self._now,
            active=len(self._active),
            waiting=len(self._waiting),
            backlog=len(self._backlog),
            breaker=self._router.breaker_summary(),
            cache_hit_rate=self.plan_cache.stats.hit_rate,
            round_latency=0.0 if deferred else self._last_round_latency,
            questions=0 if deferred else self._last_round_questions,
            questions_total=self._questions_posted,
            shared_rounds=self._shared_rounds,
            completed=tally.completed,
            degraded=tally.degraded,
            shed=tally.shed,
            deferred=deferred,
            queue_wait_mean=tally.wait_total / finished if finished else 0.0,
            deadline_met=tally.deadline_met,
            deadline_breached=tally.deadline_breached,
            brownout_level=(
                self._brownout.level if self._brownout is not None else 0
            ),
        )
        record = (
            self._observe_slo(sample)
            if self._slo is not None
            else sample.to_dict()
        )
        self.tick_history.append(sample)
        registry = get_registry()
        registry.gauge("service.queue_depth").set(sample.queue_depth)
        registry.gauge("service.active_queries").set(sample.active)
        registry.gauge("service.queue_wait_mean").set(sample.queue_wait_mean)
        if not deferred:
            registry.histogram("service.round_latency").observe(
                sample.round_latency
            )
        self._journal_record("tick", **record)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit_due(self) -> None:
        """Offer the due arrivals to admission control, a pass at a time.

        Admission decides on occupancy alone, so one pass takes every due
        arrival that the per-arrival :meth:`AdmissionController.decide`
        calls would admit (each takes a free slot, except a ``c0 = 1``
        query, which completes on admission) or shed, then plans them
        together and admits them in arrival order.  A pass stops at the
        first deferred arrival, or when the slots run out; a query that
        needed no crowd work leaves its slot to the next pass.
        """
        backlog = self._backlog
        brownout = self._brownout
        while backlog and backlog[0].arrival_time <= self._now:
            n_active, n_waiting = len(self._active), len(self._waiting)
            slots = self._admission.free_slots(n_active, n_waiting)
            full = None if slots else self._admission.decide(
                n_active=n_active, n_waiting=n_waiting
            )
            due: List[Tuple[QuerySpec, Optional[str]]] = []
            while backlog and (spec := backlog[0]).arrival_time <= self._now:
                if (
                    brownout is not None
                    and brownout.shed_low_priority
                    and spec.priority <= 0
                ):
                    reason: Optional[str] = (
                        f"brownout level {brownout.level}: "
                        "low-priority admissions shed"
                    )
                elif slots:
                    reason = None
                    slots -= spec.n_elements > 1
                elif full is AdmissionDecision.SHED:
                    reason = self._admission.describe_overload()
                else:
                    break  # stays in the backlog; offered again next pass
                due.append((backlog.popleft(), reason))
            if not due:
                return
            plans = self._plan([spec for spec, reason in due if reason is None])
            for spec, reason in due:
                if reason is None:
                    self._admit(spec, *next(plans))
                else:
                    self._shed(spec, reason)

    def _admit(
        self, spec: QuerySpec, allocation: Allocation, cache_hit: bool
    ) -> None:
        session = MaxSession(
            allocation, self._selector, spec.n_elements, self._selector_rng
        )
        budget = LatencyBudget.resolve(
            spec.deadline, self.config.default_deadline, spec.arrival_time
        )
        query = ActiveQuery(
            spec=spec,
            seq=self._next_seq,
            offset=self._offsets[spec.query_id],
            session=session,
            plan_cache_hit=cache_hit,
            admitted_time=max(self._now, spec.arrival_time),
            deadline_at=budget.expires_at if budget is not None else None,
        )
        self._next_seq += 1
        self._owed["service.queries_admitted"] += 1
        self._owed[
            "service.plan_cache.hits" if cache_hit else "service.plan_cache.misses"
        ] += 1
        tracer = current_tracer()
        if tracer.enabled:
            query_span = f"q{spec.query_id}"
            open_span(
                tracer,
                query_span,
                "query",
                start=spec.arrival_time,
                query_id=spec.query_id,
                detail=f"c0={spec.n_elements} b={spec.budget}",
            )
            # Planning consumes solver CPU, not simulated platform time,
            # so the plan span is a zero-width annotation on the clock.
            emit_span(
                tracer,
                f"{query_span}/plan",
                "plan",
                start=self._now,
                end=self._now,
                parent_id=query_span,
                query_id=spec.query_id,
                detail="cache-hit" if cache_hit else "solved",
            )
            tracer.emit(
                QueryAdmitted(
                    query_id=spec.query_id,
                    n_elements=spec.n_elements,
                    budget=spec.budget,
                    priority=spec.priority,
                    plan_cache_hit=cache_hit,
                ),
                sim_time=self._now,
            )
        logger.debug(
            "admitted query %d (c0=%d, b=%d, priority=%d, cache %s) at t=%.1f",
            spec.query_id,
            spec.n_elements,
            spec.budget,
            spec.priority,
            "hit" if cache_hit else "miss",
            self._now,
        )
        if session.done:
            # Trivial collection (c0 = 1): completed without any crowd work.
            query.state = QueryState.RUNNING
            self._finalize([(query, QueryState.COMPLETED, None)])
            return
        self._waiting.append(query)

    def _promote_waiting(self) -> None:
        """Move waiting queries into free active slots, admission order."""
        while self._waiting and (
            len(self._active) < self.config.max_active_queries
        ):
            query = self._waiting.pop(0)
            query.state = QueryState.RUNNING
            self._active.append(query)

    # ------------------------------------------------------------------
    # Deadlines & brownout
    # ------------------------------------------------------------------
    def _queue_wait_p95(self) -> float:
        """Live queue-wait p95 over waiting queries and due arrivals."""
        backlog = self._backlog
        waiting = [q.spec.arrival_time for q in self._waiting]
        return backlog_queue_wait_p95(
            self._now, waiting, len(backlog), lambda j: backlog[j].arrival_time
        )

    def _update_brownout(self) -> None:
        """Feed the live queue-wait p95 into the brownout controller."""
        p95 = self._queue_wait_p95()
        registry = get_registry()
        registry.gauge("brownout.state").set(self._brownout.level)
        change = self._brownout.observe(p95)
        if change is None:
            return
        previous, level = change
        registry.gauge("brownout.state").set(level)
        registry.counter("brownout.transitions").inc()
        self._journal_record(
            "brownout",
            level=level,
            previous=previous,
            queue_wait_p95=p95,
            now=self._now,
            tick=self._ticks,
        )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit(
                BrownoutStateChanged(
                    level=level,
                    previous=previous,
                    queue_wait_p95=p95,
                    tick=self._ticks,
                ),
                sim_time=self._now,
            )
        logger.warning(
            "brownout level %d -> %d at t=%.1f (queue-wait p95 %.1f s)",
            previous,
            level,
            self._now,
            p95,
        )
        self._apply_brownout_effects()

    def _apply_brownout_effects(self) -> None:
        """Re-derive every brownout side effect from the current level.

        Called after each transition *and* after journal recovery, so the
        effects are always a pure function of the (snapshotted) level.
        """
        if self._brownout is None:
            return
        repetition = (
            1 if self._brownout.reduce_repetition else self.config.repetition
        )
        for backend in self._router.backends:
            backend.rwl.repetition = repetition
        self._router.hedging_suspended = self._brownout.hedging_disabled

    # ------------------------------------------------------------------
    # SLO engine & flight recorder
    # ------------------------------------------------------------------
    def _slo_signals(self, sample: TickSample) -> Dict[str, float]:
        """The threshold-rule signals for one tick.

        Built only from the sample and snapshot-restored scheduler state
        (never the process-global metrics registry), so a recovered run
        feeds the engine the same values and replays the same alerts.
        """
        breaker_open = any(
            backend.breaker is not None
            and backend.breaker.state is BreakerState.OPEN
            for backend in self._router.backends
        )
        return {
            "queue_wait_p95": self._queue_wait_p95(),
            "breaker_open": 1.0 if breaker_open else 0.0,
            "brownout_level": float(sample.brownout_level),
            "hedge_waste": float(self._router.hedge_waste),
            "queue_depth": float(sample.queue_depth),
            "active_queries": float(sample.active),
            "round_latency": float(sample.round_latency),
        }

    def _observe_slo(self, sample: TickSample) -> Dict[str, Any]:
        """Feed the tick to the SLO engine and stamp its verdict on *sample*.

        Returns the stamped sample as a dict, which the flight ring and
        the journal share.
        """
        transitions = self._slo.observe(sample, self._slo_signals(sample))
        health = self._slo.health()
        sample.alerts_active = len(health.reasons)
        sample.health = health.state
        record = sample.to_dict()
        self._flight.record("tick", **record)
        registry = get_registry()
        registry.gauge("alerts.active").set(sample.alerts_active)
        if self._slo_gauges is None:
            # Resolved once: gauge lookups are per-tick hot-path work.
            self._slo_gauges = [
                (
                    target.name,
                    registry.gauge(
                        labeled_name("slo_burn_rate", {"slo": target.name})
                    ),
                )
                for target in self.config.slo.targets
            ]
        for name, gauge in self._slo_gauges:
            gauge.set(self._slo.burn_rate(name))
        tracer = current_tracer()
        for transition in transitions:
            payload = dataclasses.asdict(transition)
            self._flight.record("alert", **payload)
            self._journal_record("alert", now=self._now, **payload)
            if transition.action == "fired":
                registry.counter("alerts.fired").inc()
                if tracer.enabled:
                    tracer.emit(
                        AlertFired(
                            alert=transition.rule,
                            severity=transition.severity,
                            value=transition.value,
                            tick=transition.tick,
                        ),
                        sim_time=self._now,
                    )
                logger.warning(
                    "alert %s fired at tick %d (%s, value %.3f)",
                    transition.rule, transition.tick,
                    transition.severity, transition.value,
                )
            else:
                registry.counter("alerts.resolved").inc()
                if tracer.enabled:
                    tracer.emit(
                        AlertResolved(
                            alert=transition.rule,
                            severity=transition.severity,
                            value=transition.value,
                            tick=transition.tick,
                        ),
                        sim_time=self._now,
                    )
                logger.warning(
                    "alert %s resolved at tick %d (value %.3f)",
                    transition.rule, transition.tick, transition.value,
                )
        if self.config.slo.bundle_dir is not None:
            for transition in transitions:
                if transition.action == "fired":
                    self._write_incident_bundle(transition)
        return record

    def debug_state(self) -> Dict[str, Any]:
        """The robustness-layer state a debug bundle snapshots."""
        state: Dict[str, Any] = {
            "tick": self._ticks,
            "now": self._now,
            "breaker": {
                backend.name: (
                    backend.breaker.state.value
                    if backend.breaker is not None
                    else None
                )
                for backend in self._router.backends
            },
            "brownout": (
                self._brownout.state_dict()
                if self._brownout is not None
                else None
            ),
            "router": self._router.hedge_summary(),
            "journal": (
                {"path": str(self._journal.path), "seq": self._journal._seq}
                if self._journal is not None
                else None
            ),
        }
        if self._slo is not None:
            state["health"] = self._slo.health().describe()
            state["active_alerts"] = self._slo.active_alerts()
            state["slo"] = self._slo.state_dict()
        return state

    def write_debug_bundle(
        self, directory: Any, reason: str = "diagnose"
    ) -> Path:
        """Snapshot a flight-recorder debug bundle into *directory*."""
        if self._flight is None:
            raise InvalidParameterError(
                "no flight recorder: the scheduler was built without an "
                "SLO config"
            )
        return write_bundle(
            directory,
            self._flight,
            state=self.debug_state(),
            metrics_snapshot=get_registry().snapshot(),
            reason=reason,
        )

    def _write_incident_bundle(self, transition: AlertTransition) -> None:
        bundle = (
            Path(self.config.slo.bundle_dir)
            / f"alert-{transition.rule}-tick-{transition.tick}"
        )
        # Structural directory name (rule + tick, no wall clock), so a
        # recovered run re-writes the same bundle idempotently.
        self.write_debug_bundle(bundle, reason=f"alert:{transition.rule}")

    def _expire_deadlines(self) -> None:
        """Reactively degrade queries whose budget has already run out.

        Every admitted query reaches an explicit terminal state: even one
        stuck behind a full active set degrades (outcome ``exceeded``)
        the moment its budget expires, rather than waiting forever.
        """
        expired = [
            query
            for query in self._active + self._waiting
            if query.deadline_at is not None and self._now > query.deadline_at
        ]
        if expired:
            gone = set(expired)
            self._waiting = [q for q in self._waiting if q not in gone]
            self._finalize(
                [(query, QueryState.DEGRADED, DEADLINE_EXCEEDED) for query in expired]
            )

    def _apply_deadline(self, query: ActiveQuery) -> bool:
        """Fit *query*'s remaining rounds into its remaining budget.

        When the currently-planned rounds cannot finish inside the
        budget, the future rounds are merged into one — a replan against
        the shrunk budget (one wide round beats several the query will
        not live to post).  When even the merged plan cannot fit, the
        query degrades *proactively* to a partial-confidence answer while
        the evidence it has is still worth returning.

        Returns ``True`` when the query should be packed this tick.
        """
        if query.deadline_at is None:
            return True
        remaining = query.deadline_at - self._now
        session = query.session
        allocation = session.allocation
        current = self.latency(len(query.unanswered))
        future = allocation.round_budgets[session.round_index + 1:]
        planned = current + sum(self.latency(b) for b in future)
        if planned <= remaining:
            return True
        merged = sum(future)
        if merged > 0 and current + self.latency(merged) <= remaining:
            budgets = allocation.round_budgets[: session.round_index + 1] + (
                merged,
            )
            session.allocation = Allocation(
                round_budgets=budgets,
                element_sequence=None,
                allocator_name=f"{allocation.allocator_name}+deadline-replan",
            )
            get_registry().counter("deadline.replans").inc()
            self._journal_record(
                "replan",
                query_id=query.spec.query_id,
                round_budgets=list(budgets),
                now=self._now,
            )
            logger.info(
                "query %d replanned for its deadline at t=%.1f: "
                "%d future rounds merged into one of budget %d",
                query.spec.query_id,
                self._now,
                len(future),
                merged,
            )
            return True
        self._finalize([(query, QueryState.DEGRADED, DEADLINE_DEGRADED)])
        return False

    def _round_budget(self, scheduled: List[ActiveQuery]) -> Optional[float]:
        """Tightest remaining budget among this round's riders.

        The shared round's RWL retry loop must not back off past the
        point where the most urgent rider's budget expires.
        """
        deadlines = [
            q.deadline_at for q in scheduled if q.deadline_at is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - self._now)

    def _query_budgets(
        self, scheduled: List[ActiveQuery]
    ) -> Optional[Dict[int, float]]:
        """Per-query remaining budgets for the router's backend choice."""
        budgets = {
            q.spec.query_id: q.deadline_at - self._now
            for q in scheduled
            if q.deadline_at is not None
        }
        return budgets or None

    def _shed(self, spec: QuerySpec, reason: str) -> None:
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit(
                QueryShed(query_id=spec.query_id, reason=reason),
                sim_time=self._now,
            )
        logger.warning(
            "shed query %d at t=%.1f: %s", spec.query_id, self._now, reason
        )
        budget = LatencyBudget.resolve(
            spec.deadline, self.config.default_deadline, spec.arrival_time
        )
        self._record_results(
            [
                QueryResult(
                    spec=spec,
                    state=QueryState.SHED,
                    winner=None,
                    correct=None,
                    singleton=False,
                    latency=0.0,
                    queue_wait=0.0,
                    rounds=0,
                    questions_posted=0,
                    plan_cache_hit=False,
                    slo_met=None,
                    shed_reason=reason,
                    deadline=budget.deadline if budget is not None else None,
                    deadline_outcome=(
                        DEADLINE_SHED if budget is not None else None
                    ),
                )
            ]
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan(
        self, specs: Sequence[QuerySpec]
    ) -> Iterator[Tuple[Allocation, bool]]:
        """Each query's allocation, and whether the plan cache served it.

        The keys are built once per ``(c0, budget)`` shape; each query
        is then looked up in turn, and a miss is solved and cached when
        its query is reached.
        """
        keys: Dict[Tuple[int, int], PlanKey] = {}
        for spec in specs:
            shape = (spec.n_elements, spec.budget)
            key = keys.get(shape)
            if key is None:
                key = keys[shape] = PlanKey.for_query(
                    *shape, self.latency, self.config.repetition
                )
                if PROFILER.enabled:
                    PROFILER.add("plan_cache.keys_built")
            allocation = self.plan_cache.get(key)
            if allocation is None:
                allocation = self._allocator.allocate(*shape, self.latency)
                self.plan_cache.put(key, allocation)
                yield allocation, False
            else:
                yield allocation, True

    # ------------------------------------------------------------------
    # Tick execution
    # ------------------------------------------------------------------
    def _refresh_round(
        self, tracer: Tracer, query: ActiveQuery, opened: bool
    ) -> None:
        """Load *query*'s unanswered questions.

        *opened* says whether this step's :func:`open_rounds` pass opened
        the query's round.
        """
        session = query.session
        pending = query.unanswered = session.pending_questions()
        if opened and tracer.enabled:
            query_id = query.spec.query_id
            open_span(
                tracer,
                f"q{query_id}/r{session.round_index}",
                "round",
                start=self._now,
                parent_id=f"q{query_id}",
                query_id=query_id,
                detail=f"{len(pending)} questions",
            )

    def _run_tick(self, runnable: List[ActiveQuery]) -> None:
        """Pack one shared round, route it to the fleet and resolve it.

        A total outage (every backend that received questions went dark)
        costs a round attempt to every scheduled query that had a
        question posted; a partial outage leaves that backend's questions
        unanswered for the next tick; questions the router could not
        place under capacity (or a half-open backend's probe quota) spend
        no round attempt — the crowd never saw them.
        """
        scheduled: List[ActiveQuery] = []
        sizes: List[int] = []
        n_batch = 0
        cap = self.config.max_inflight_questions
        for query in self._policy.order(runnable):
            size = len(query.unanswered)
            if n_batch and n_batch + size > cap:
                continue  # backpressure: whole rounds only; retry next tick
            scheduled.append(query)
            sizes.append(size)
            n_batch += size
        registry = get_registry()
        tracer = current_tracer()
        for query in scheduled:
            if query.first_scheduled_time is None:
                query.first_scheduled_time = self._now
                if tracer.enabled:
                    self._emit_wait_chunk(tracer, query, self._now)
            query.times_scheduled += 1
            if tracer.enabled:
                tracer.emit(
                    QueryScheduled(
                        query_id=query.spec.query_id,
                        tick=self._ticks,
                        round_index=query.session.round_index,
                        n_questions=len(query.unanswered),
                    ),
                    sim_time=self._now,
                )
        logger.debug(
            "tick %d at t=%.1f: %d queries share a round of %d questions",
            self._ticks,
            self._now,
            len(scheduled),
            n_batch,
        )
        tick_span = f"t{self._ticks}"
        tick_start = self._now
        if tracer.enabled:
            open_span(
                tracer,
                tick_span,
                "tick",
                start=tick_start,
                detail=f"{len(scheduled)} queries, {n_batch} questions",
            )
        # Each query owns the element slice [offset, offset + c0): one
        # add moves every query's rows to global IDs.
        offsets = np.array([query.offset for query in scheduled])
        questions = np.concatenate([query.unanswered for query in scheduled])
        questions += np.repeat(offsets, sizes)[:, None]
        units = [
            (query.spec.query_id, size) for query, size in zip(scheduled, sizes)
        ]
        # The span scope hands the tick's id and clock anchor down to the
        # router / RWL / fault layer / breaker, whose events and attempt
        # sub-spans then nest under this shared round.
        with span_scope(tick_span, base_time=tick_start):
            outcome = self._router.post_round(
                questions,
                units,
                now=self._now,
                tick=self._ticks,
                budgets=self._query_budgets(scheduled),
                rwl_budget=self._round_budget(scheduled),
            )
        self._journal_record("route", **outcome.decision.to_dict())
        outage = outcome.total_outage
        self._now += outcome.latency
        # Breakers trip clock-lessly inside the RWL; stamp opened_at now
        # that the round's cost is on the clock.
        self._router.note_time(self._now)
        self._last_round_latency = float(outcome.latency)
        if outage:
            # The whole shared round was swallowed: every scheduled query
            # keeps its unanswered questions for the next tick, and the
            # detection time is latency all of them paid.
            self._last_round_questions = 0
        else:
            self._shared_rounds += 1
            self._questions_posted += outcome.n_posted
            self._last_round_questions = outcome.n_posted
            registry.counter("service.rounds").inc()
            registry.counter("service.questions_posted").inc(outcome.n_posted)
        # Either element of a row names its query; `scheduled` is in
        # policy order, hence the sort of the offsets.
        by_offset = np.argsort(offsets)
        starts = offsets[by_offset]

        def owner_of(rows: np.ndarray) -> np.ndarray:
            return by_offset[np.searchsorted(starts, rows[:, 0], side="right") - 1]

        def per_query(rows: np.ndarray) -> List[int]:
            if not len(rows):
                return [0] * len(scheduled)
            return np.bincount(owner_of(rows), minlength=len(scheduled)).tolist()

        unposted = per_query(outcome.unposted)
        if tracer.enabled:
            close_span(
                tracer,
                tick_span,
                end=self._now,
                status="outage" if outage else "ok",
            )
            hedged = per_query(outcome.hedged_questions)
            posted = {
                query.spec.query_id: hedged[i] > 0
                for i, query in enumerate(scheduled)
                if unposted[i] < sizes[i]
            }
            self._record_tick_chunks(
                tracer, runnable, posted, tick_start, self._now, outage=outage
            )
        if outage:
            exits: List[Exit] = []
            for query, size, n_unposted in zip(scheduled, sizes, unposted):
                if n_unposted < size and self._out_of_attempts(query, size):
                    exits.append((query, QueryState.DEGRADED, None))
            self._finalize(exits)
            return
        questions, winners = outcome.questions, outcome.winners
        owner = owner_of(questions)
        # Small unsigned ints sort stably by radix.
        rows = np.argsort(
            owner.astype(np.min_scalar_type(len(scheduled))), kind="stable"
        )
        losers = questions[:, 0] + questions[:, 1] - winners
        local = np.stack((winners, losers), axis=1)
        local = (local - offsets[owner][:, None])[rows]
        counts = np.bincount(owner, minlength=len(scheduled))
        # Before submit advances round_index, so each closed span's id
        # matches the open emitted by _refresh_round.
        rounds = (
            [query.session.round_index for query in scheduled]
            if tracer.enabled
            else None
        )
        counts = counts.tolist()
        submit_rounds([query.session for query in scheduled], local, counts)
        exits = []
        for query, size, count, n_unposted in zip(
            scheduled, sizes, counts, unposted
        ):
            lost = size - count  # re-posted next tick
            if lost:
                # An unposted question is never answered, so the lost ones
                # were all unposted exactly when `lost` of the round were.
                if n_unposted < lost and self._out_of_attempts(query, lost):
                    exits.append((query, QueryState.DEGRADED, None))
                continue
            query.round_attempts = 0
            if query.session.done:
                exits.append((query, QueryState.COMPLETED, None))
        results = self._finalize(exits, trace=False)
        if tracer.enabled:
            # Each resolved round closes before its query's exit, if any.
            finished = {exit_[0]: (exit_, r) for exit_, r in zip(exits, results)}
            for query, size, count, round_index in zip(
                scheduled, sizes, counts, rounds
            ):
                if count == size:
                    close_span(
                        tracer,
                        f"q{query.spec.query_id}/r{round_index}",
                        end=self._now,
                    )
                if query in finished:
                    self._trace_exit(tracer, *finished[query])

    def _out_of_attempts(self, query: ActiveQuery, lost: int) -> bool:
        """Count a shared round that left *query*'s round unresolved;
        ``True`` once the query must degrade."""
        query.round_attempts += 1
        if query.round_attempts < self.config.max_round_attempts:
            return False
        logger.warning(
            "query %d degraded: round %d unresolved after %d shared "
            "rounds (%d questions lost)",
            query.spec.query_id,
            query.session.round_index,
            query.round_attempts,
            lost,
        )
        return True

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _finalize(
        self, exits: Sequence[Exit], trace: bool = True
    ) -> List[QueryResult]:
        """Finalize the queries that left at one call site, in one pass.

        *exits* lists each query with its terminal state and the deadline
        outcome its call site decided (``None`` to derive one), in result
        order.  One ranks pass finds every true MAX; the results are
        recorded, and the active list rebuilt, once.  With *trace* each
        exit's spans and events follow, in order; a call site that
        interleaves other trace records with them passes ``False`` and
        calls :meth:`_trace_exit` itself.  Returns the results.
        """
        if not exits:
            return []
        now = self._now
        queries = [query for query, _, _ in exits]
        results = []
        for (query, state, deadline_outcome), true_max in zip(
            exits, self._true_local_maxima(queries)
        ):
            spec, session = query.spec, query.session
            singleton = False
            try:
                if state is QueryState.COMPLETED:
                    winner = session.winner
                    singleton = session.singleton_termination
                else:
                    winner = best_scored(session.evidence)
            except InconsistentAnswersError:
                # Parts of one round answered in different ticks are
                # repaired by separate RWL calls, which can close a
                # preference cycle the scoring cannot rank.
                winner = most_wins(session.evidence)
                state = QueryState.DEGRADED
            latency = max(0.0, now - spec.arrival_time)
            deadline: Optional[float] = None
            if query.deadline_at is not None:
                deadline = query.deadline_at - spec.arrival_time
                if deadline_outcome is None:
                    if now > query.deadline_at:
                        deadline_outcome = DEADLINE_EXCEEDED
                    elif state is QueryState.COMPLETED:
                        deadline_outcome = DEADLINE_MET
                    else:
                        deadline_outcome = DEADLINE_DEGRADED
            results.append(
                QueryResult(
                    spec=spec,
                    state=state,
                    winner=winner,
                    correct=winner == true_max,
                    singleton=singleton,
                    latency=latency,
                    queue_wait=(
                        max(0.0, query.first_scheduled_time - spec.arrival_time)
                        if query.first_scheduled_time is not None
                        else 0.0
                    ),
                    rounds=session.rounds_executed,
                    questions_posted=(
                        session.questions_posted + session.open_round_size
                    ),
                    plan_cache_hit=query.plan_cache_hit,
                    slo_met=(
                        latency <= spec.latency_slo
                        if spec.latency_slo is not None
                        else None
                    ),
                    deadline=deadline,
                    deadline_outcome=deadline_outcome,
                )
            )
        self._record_results(results)
        gone = set(queries)
        self._active = [query for query in self._active if query not in gone]
        tracer = current_tracer()
        if trace and tracer.enabled:
            for exit_, result in zip(exits, results):
                self._trace_exit(tracer, exit_, result)
        if logger.isEnabledFor(logging.DEBUG):
            for result in results:
                logger.debug(
                    "query %d %s at t=%.1f: winner %d, latency %.1f s, "
                    "wait %.1f s",
                    result.spec.query_id,
                    result.state.value,
                    now,
                    result.winner,
                    result.latency,
                    result.queue_wait,
                )
        return results

    def _trace_exit(
        self, tracer: Tracer, exit_: Exit, result: QueryResult
    ) -> None:
        """Close a finalized query's spans and emit its exit events."""
        query, _, decided = exit_
        state = result.state
        query_id = query.spec.query_id
        if query.first_scheduled_time is None:
            # Never reached the platform (trivial c0=1, or degraded out of
            # the queue): the whole lifetime was queue wait.
            self._emit_wait_chunk(tracer, query, self._now)
        if query.session.awaiting_answers:
            # Degraded mid-round: the open round span ends with the query.
            close_span(
                tracer,
                f"q{query_id}/r{query.session.round_index}",
                end=self._now,
                status="degraded",
            )
        close_span(tracer, f"q{query_id}", end=self._now, status=state.value)
        totals: Dict[str, float] = {}
        for component, start, end in self._attribution.get(query_id, ()):
            totals[component] = totals.get(component, 0.0) + (end - start)
        registry = get_registry()
        for component, seconds in totals.items():
            registry.histogram(component_metric(component)).observe(seconds)
        outcome = result.deadline_outcome
        if outcome == DEADLINE_EXCEEDED or (
            decided is not None and outcome == DEADLINE_DEGRADED
        ):
            tracer.emit(
                DeadlineExceeded(
                    query_id=query_id,
                    deadline=(
                        result.deadline if result.deadline is not None else 0.0
                    ),
                    overrun=max(0.0, self._now - query.deadline_at),
                    outcome=outcome,
                ),
                sim_time=self._now,
            )
        tracer.emit(
            QueryCompleted(
                query_id=query_id,
                state=state.value,
                winner=result.winner,
                latency=result.latency,
                queue_wait=result.queue_wait,
                rounds=result.rounds,
            ),
            sim_time=self._now,
        )

    def _true_local_maxima(self, queries: Sequence[ActiveQuery]) -> List[Element]:
        """Each query's true MAX under the shared hidden order, local IDs,
        from one gather of every query's slice of the ranks."""
        sizes = np.array([query.spec.n_elements for query in queries])
        offsets = np.array([query.offset for query in queries])
        starts = np.cumsum(sizes) - sizes
        slices = np.arange(starts[-1] + sizes[-1]) + np.repeat(offsets - starts, sizes)
        best = np.minimum.reduceat(self.truth.ranks[slices], starts)
        return (self.truth.order[best] - offsets).tolist()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _build_report(self) -> ServiceReport:
        cache = self.plan_cache.snapshot()
        return ServiceReport(
            results=tuple(
                sorted(self._results, key=lambda r: r.spec.query_id)
            ),
            makespan=self._now,
            ticks=self._ticks,
            shared_rounds=self._shared_rounds,
            questions_posted=self._questions_posted,
            cache_hits=cache["hits"],
            cache_misses=cache["misses"],
            cache_evictions=cache["evictions"],
            attribution=(
                summarize_attribution(self._attribution)
                if self._attribution
                else None
            ),
            health=self._slo.health() if self._slo is not None else None,
        )
