"""Capacity-aware routing of shared rounds across a federated fleet.

The scheduler packs one shared round per tick and hands it to the router
as one ``(k, 2)`` question array with each query's ``(query_id, rows)``
unit, and the router *splits* it across the fleet's backends.  Every run
has a fleet: a single-platform run is a one-backend ("solo") fleet, and
it takes exactly the same path as any other fleet.  The split is an
assignment problem in the spirit of quoracle's load/latency search:
place each query's rows on the backend that minimizes the predicted
round makespan, subject to per-backend capacity limits — then post the
per-backend sub-batches (conceptually in parallel, so the tick's latency
is the *maximum* over the participating backends).

Routing policies (``ServiceConfig.routing`` / ``serve --routing``):

* ``latency`` (default) — greedy water-filling over predicted round
  latency: each unit goes to the backend whose predicted ``L(q)`` after
  taking the unit is smallest.
* ``least-loaded`` — balance the round by occupancy (capacity fraction
  where a capacity is set, absolute assigned questions otherwise).
* ``weighted-price`` — cheapest backend first (predicted latency as the
  tie-break), spilling to pricier backends only on capacity.

Failover is breaker-driven and per-backend: an OPEN backend is excluded
from the split (its share reroutes to the survivors), a HALF_OPEN backend
receives at most ``PROBE_QUESTIONS`` as a probe, and only when *every*
backend defers does the router defer the whole round.  Units are kept
whole when any backend can take them (one query's round on one platform
keeps worker-answer locality); a unit larger than every remaining slot is
split across backends by remaining capacity.

Determinism: backends are always iterated in spec order, every tie breaks
toward the lower backend index, and the only RNG the router ever touches
is each backend's own (inside its RWL).  The scheduler journals one
``route`` record per routed tick, and recovery replays the exact
same decisions — bit-identically — because the router is a pure function
of (fleet state, round content).
"""

from __future__ import annotations

import functools
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.crowd.breaker import RoundDecision
from repro.crowd.multibackend.backend import Backend
from repro.crowd.rwl import RWLResult
from repro.errors import InvalidParameterError, PlatformOutageError
from repro.obs.events import RoundHedged
from repro.obs.metrics import get_registry, labeled_name
from repro.obs.spans import current_span, emit_span, span_scope
from repro.obs.stats import percentile
from repro.obs.tracer import current_tracer
from repro.types import Questions, as_pairs

logger = logging.getLogger(__name__)

#: Accepted ``ServiceConfig.routing`` / ``--routing`` policy names.
ROUTING_POLICIES: Tuple[str, ...] = ("latency", "least-loaded", "weighted-price")

#: Distinct-question cap of a half-open backend's probe sub-batch.
PROBE_QUESTIONS = 8

#: Effectively-unbounded stand-in for a ``capacity=None`` backend.
_UNBOUNDED = 10**12

#: The ``backend.<metric>{backend="<name>"}`` series of every sub-round.
_BACKEND_SERIES = ("round_latency", "rounds", "questions_posted", "outages")


@functools.lru_cache(maxsize=None)
def _backend_series(name: str) -> Dict[str, str]:
    """Backend *name*'s labeled series names, built once per process."""
    return {
        metric: labeled_name(f"backend.{metric}", {"backend": name})
        for metric in _BACKEND_SERIES
    }


@dataclass(frozen=True)
class HedgeConfig:
    """Tail-protection hedging for routed rounds.

    A sub-batch whose predicted latency exceeds ``hedge_after`` is
    *mirrored* to the predicted-fastest other backend with room; the
    first answer wins and the loser's posted copies are accounted as
    ``hedge_waste``.  With ``hedge_after`` unset the threshold is
    derived online from the fleet's observed sub-round latencies: the
    nearest-rank ``percentile`` over a sliding ``window``, scaled by
    ``factor``, once ``min_samples`` latencies have been observed.

    ``hedge_after=math.inf`` never hedges — the run is bit-identical to
    an unhedged one (pinned by a property test).

    Attributes:
        hedge_after: explicit hedge threshold in seconds (``None`` =
            derive from the fleet p-th percentile).
        percentile: percentile of the observed-latency window used when
            deriving the threshold.
        factor: multiplier applied to the derived percentile.
        min_samples: observed sub-rounds required before the derived
            threshold arms (explicit thresholds arm immediately).
        window: sliding-window size of observed sub-round latencies.
    """

    hedge_after: Optional[float] = None
    percentile: float = 95.0
    factor: float = 1.0
    min_samples: int = 8
    window: int = 64

    def __post_init__(self) -> None:
        if self.hedge_after is not None and not self.hedge_after > 0:
            raise InvalidParameterError(
                f"hedge_after must be > 0 seconds, got {self.hedge_after}"
            )
        if not 0.0 < self.percentile <= 100.0:
            raise InvalidParameterError(
                f"percentile must be in (0, 100], got {self.percentile}"
            )
        if not self.factor > 0:
            raise InvalidParameterError(
                f"factor must be > 0, got {self.factor}"
            )
        if self.min_samples < 1:
            raise InvalidParameterError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.window < self.min_samples:
            raise InvalidParameterError(
                f"window ({self.window}) must be >= min_samples "
                f"({self.min_samples})"
            )


@dataclass(frozen=True)
class _SubRound:
    """What posting one backend's sub-batch produced (or cost)."""

    ok: bool
    latency: float
    result: Optional[RWLResult] = None


@dataclass(frozen=True)
class RouteDecision:
    """One tick's routing decision (journaled; the failover audit trail).

    Attributes:
        tick: the scheduler tick the decision belongs to.
        assignments: distinct questions assigned per backend name (every
            configured backend appears, zeros included).
        states: breaker state label per backend at decision time.
        unposted: distinct questions no backend had room for (they stay
            outstanding and are re-routed next tick — *not* a fault).
        hedges: hedged primaries this tick, ``{primary: mirror}`` backend
            names (empty when hedging is off — the journal record is then
            byte-identical to an unhedged run's).
    """

    tick: int
    assignments: Dict[str, int]
    states: Dict[str, str]
    unposted: int
    hedges: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "tick": self.tick,
            "assignments": dict(self.assignments),
            "states": dict(self.states),
            "unposted": self.unposted,
        }
        if self.hedges:
            payload["hedges"] = dict(self.hedges)
        return payload


@dataclass(frozen=True, eq=False)
class RoundOutcome:
    """What one routed shared round produced, aggregated over the fleet.

    Attributes:
        questions: ``(k, 2)`` int64 ``(lo, hi)`` pairs of every answered
            question, concatenated in backend order.
        winners: ``(k,)`` int64, the conflict-free winner of each row.
        latency: the round's simulated latency — the max over posted
            backends (sub-batches run in parallel).
        n_posted: distinct questions successfully posted (assigned to a
            backend that returned a batch).
        unposted: ``(u, 2)`` int64, the questions no backend had
            capacity for this round, as the units gave them.
        total_outage: every posting backend suffered a whole-batch
            outage; the scheduler then charges a round attempt to every
            scheduled query that had a question posted.
        decision: the routing decision that produced this outcome.
        backend_latencies: per-backend round latency (posted backends
            only), keyed by name.
        outaged: names of backends whose sub-batch was swallowed.
        hedged_questions: ``(h, 2)`` int64, the questions that were
            mirrored to a hedge backend this round (attribution labels
            their chunks ``hedge``); empty when hedging is off.
    """

    questions: np.ndarray
    winners: np.ndarray
    latency: float
    n_posted: int
    unposted: np.ndarray
    total_outage: bool
    decision: RouteDecision
    backend_latencies: Dict[str, float]
    outaged: Tuple[str, ...]
    hedged_questions: np.ndarray


class CapacityAwareRouter:
    """Split each shared round across a fleet of :class:`Backend` s.

    Args:
        backends: the live fleet, spec order (see
            :func:`~repro.crowd.multibackend.backend.build_backends`).
        policy: one of :data:`ROUTING_POLICIES`.
        hedge: optional :class:`HedgeConfig` enabling tail-protection
            mirroring of predicted-slow sub-batches.

    A one-backend fleet runs this same code: it emits backend spans, gets
    the ``PROBE_QUESTIONS`` quota when half-open, and never hedges only
    because it has no other backend to mirror to.
    """

    def __init__(
        self,
        backends: Sequence[Backend],
        policy: str = "latency",
        hedge: Optional[HedgeConfig] = None,
    ) -> None:
        if policy not in ROUTING_POLICIES:
            raise InvalidParameterError(
                f"unknown routing policy {policy!r}; available: "
                f"{', '.join(ROUTING_POLICIES)}"
            )
        if not backends:
            raise InvalidParameterError("the router needs >= 1 backend")
        self.backends: List[Backend] = list(backends)
        self.policy = policy
        self.hedge = hedge
        #: Set by the brownout controller (level 3 disables hedging).
        self.hedging_suspended = False
        #: Hedged sub-batches posted / mirror wins / wasted posted copies.
        self.hedges = 0
        self.hedge_wins = 0
        self.hedge_waste = 0
        self._latency_window: Deque[float] = deque(
            maxlen=hedge.window if hedge is not None else 1
        )
        self._by_name = {b.name: b for b in self.backends}

    def backend(self, name: str) -> Backend:
        """Look up a backend by name."""
        return self._by_name[name]

    # ------------------------------------------------------------------
    # Breaker admission (the scheduler's per-tick gate)
    # ------------------------------------------------------------------
    def before_round(self, now: float) -> Optional[float]:
        """Ask every backend's breaker about the round starting at *now*.

        Returns ``None`` when some backend takes questions; when every
        backend defers, returns the resume time — the earliest cooldown
        expiry across the fleet.
        """
        decisions = self._decide(now)
        if all(d is RoundDecision.DEFER for d in decisions.values()):
            return min(
                backend.breaker.defer_target(now)
                for backend in self.backends
                if backend.breaker is not None
            )
        return None

    def _decide(self, now: float) -> Dict[int, RoundDecision]:
        """Each backend's breaker decision for the round starting at *now*.

        Idempotent for a fixed *now* (a breaker moves OPEN → HALF_OPEN
        only on the first call), so :meth:`before_round` and
        :meth:`post_round` of one round see the same decisions.
        """
        return {
            b.index: (
                b.breaker.before_round(now)
                if b.breaker is not None
                else RoundDecision.POST
            )
            for b in self.backends
        }

    def note_time(self, now: float) -> None:
        """Stamp every breaker that opened clock-lessly during the round."""
        for backend in self.backends:
            if backend.breaker is not None:
                backend.breaker.note_time(now)

    def breaker_summary(self) -> str:
        """One-line fleet breaker state for the tick telemetry feed.

        ``"none"`` when no backend carries a breaker, ``"closed"`` when
        all circuits are closed, otherwise the non-closed backends
        spelled out as ``name:state``.
        """
        if all(backend.breaker is None for backend in self.backends):
            return "none"
        degraded = [
            f"{backend.name}:{backend.breaker.state.value}"
            for backend in self.backends
            if backend.breaker is not None
            and backend.breaker.state.value != "closed"
        ]
        return "closed" if not degraded else ",".join(degraded)

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def post_round(
        self,
        questions: Questions,
        units: Sequence[Tuple[int, int]],
        *,
        now: float,
        tick: int,
        budgets: Optional[Dict[int, float]] = None,
        rwl_budget: Optional[float] = None,
    ) -> RoundOutcome:
        """Split, post and merge one shared round.

        Args:
            questions: the round's ``(k, 2)`` int array (or a sequence
                of pairs), unit after unit.
            units: ``(query_id, rows)`` per unit, scheduler policy order:
                the unit's next *rows* rows of *questions*.  The router
                keeps each unit's rows together when it can.
            now: the simulated clock at round start (gates sustained
                outage windows and anchors backend spans).
            tick: the scheduler tick (span ids, decision log).
            budgets: optional remaining per-query latency budgets keyed
                by query id — a unit whose policy-preferred backend is
                predicted to finish past its budget is placed on the
                predicted-fastest backend instead.
            rwl_budget: optional remaining latency budget (the tightest
                across the round's queries) clipping each backend's RWL
                retry backoff.
        """
        questions = as_pairs(questions)
        sizes = [rows for _, rows in units]
        if min(sizes, default=0) < 0 or sum(sizes) != len(questions):
            raise InvalidParameterError(
                f"the units' row counts must be >= 0 and add up to the "
                f"round's {len(questions)} questions"
            )
        decisions = self._decide(now)
        assignment, unposted, remaining = self._assign(
            questions, units, decisions, budgets=budgets
        )
        mirrors = self._plan_hedges(assignment, remaining, decisions)
        decision = RouteDecision(
            tick=tick,
            assignments={
                b.name: len(assignment[b.index]) for b in self.backends
            },
            states={b.name: b.breaker_state() for b in self.backends},
            unposted=len(unposted),
            hedges={
                self.backends[primary].name: mirror.name
                for primary, mirror in mirrors.items()
            },
        )
        registry = get_registry()
        registry.counter("router.rounds").inc()
        if len(unposted):
            registry.counter("router.deferred_questions").inc(len(unposted))

        answered: List[RWLResult] = []
        latency = 0.0
        n_posted = 0
        backend_latencies: Dict[str, float] = {}
        outaged: List[str] = []
        hedged: List[np.ndarray] = []
        tracer = current_tracer()
        scope = current_span() if tracer.enabled else None
        for backend in self.backends:
            sub_batch = assignment[backend.index]
            if not len(sub_batch):
                continue
            # A hedged sub-batch is posted to its primary, then mirrored;
            # the first answer wins (the primary on a tie).
            group = [backend]
            mirror = mirrors.get(backend.index)
            if mirror is not None:
                group.append(mirror)
                hedged.append(sub_batch)
                self.hedges += 1
                registry.counter("hedge.posts").inc()
            results = [
                self._execute_sub_batch(
                    member,
                    sub_batch,
                    registry,
                    tracer,
                    scope,
                    now,
                    probe=decisions[member.index] is RoundDecision.PROBE,
                    budget=rwl_budget,
                    hedge_of=None if member is backend else backend.name,
                )
                for member in group
            ]
            ok = [i for i, result in enumerate(results) if result.ok]
            win = min(ok, key=lambda i: results[i].latency, default=None)
            if win is None:
                latency = max(latency, *(r.latency for r in results))
            else:
                answered.append(results[win].result)
                latency = max(latency, results[win].latency)
                n_posted += len(sub_batch)
            for i, (member, result) in enumerate(zip(group, results)):
                # A backend can be one sub-batch's primary and another's
                # mirror: its round latency is the longer of the two.
                backend_latencies[member.name] = max(
                    backend_latencies.get(member.name, 0.0), result.latency
                )
                if not result.ok:
                    outaged.append(member.name)
                elif i != win:
                    waste = result.result.questions_posted
                    self.hedge_waste += waste
                    registry.counter("hedge.waste").inc(waste)
            if mirror is None:
                continue
            if win == 1:
                self.hedge_wins += 1
                registry.counter("hedge.wins").inc()
            if tracer.enabled:
                tracer.emit(
                    RoundHedged(
                        tick=tick,
                        backend=backend.name,
                        mirror=mirror.name,
                        questions=len(sub_batch),
                        winner=(
                            "none" if win is None else ("primary", "mirror")[win]
                        ),
                    )
                )
        successful = set(backend_latencies) - set(outaged)
        return RoundOutcome(
            questions=_rows(r.questions for r in answered),
            winners=np.concatenate(
                [r.winners for r in answered] or [np.empty(0, np.int64)]
            ),
            latency=latency,
            n_posted=n_posted,
            unposted=unposted,
            total_outage=bool(backend_latencies) and not successful,
            decision=decision,
            backend_latencies=backend_latencies,
            outaged=tuple(outaged),
            hedged_questions=_rows(hedged),
        )

    def _execute_sub_batch(
        self,
        backend: Backend,
        sub_batch: np.ndarray,
        registry,
        tracer,
        scope,
        now: float,
        *,
        probe: bool,
        budget: Optional[float],
        hedge_of: Optional[str] = None,
    ) -> _SubRound:
        """Run one backend's sub-batch end to end (post, account, trace).

        A primary's span id is ``<tick>/<backend>``; a hedge mirror
        (``hedge_of`` set) gets its own deterministic span id
        (``<tick>/<mirror>~<primary>``) and detail suffix.
        """
        backend.set_clock(now)
        backend.rounds += 1
        span_id = None
        if scope is not None:
            suffix = f"~{hedge_of}" if hedge_of is not None else ""
            span_id = f"{scope.span_id}/{backend.name}{suffix}"
        detail_suffix = (
            f" (hedge for {hedge_of})" if hedge_of is not None else ""
        )
        try:
            result = self._post_backend(
                backend, sub_batch, span_id, scope, budget=budget
            )
        except PlatformOutageError as outage:
            backend.outages += 1
            wasted = float(outage.wasted_seconds)
            self._observe_backend(registry, backend, wasted, 0, outage=True)
            if span_id is not None:
                emit_span(
                    tracer,
                    span_id,
                    "backend",
                    start=scope.base_time,
                    end=scope.base_time + wasted,
                    parent_id=scope.span_id,
                    detail=(
                        f"{backend.name}: {len(sub_batch)} questions"
                        + detail_suffix
                    ),
                    status="outage",
                )
            logger.warning(
                "backend %s outage swallowed %d question(s) at t=%.1f",
                backend.name,
                len(sub_batch),
                now,
            )
            return _SubRound(ok=False, latency=wasted)
        backend.questions_posted += len(sub_batch)
        backend.cost += backend.spec.price_per_question * float(
            result.questions_posted
        )
        if self.hedge is not None:
            self._latency_window.append(float(result.latency))
        self._observe_backend(
            registry, backend, float(result.latency), len(sub_batch),
            outage=False,
        )
        if span_id is not None:
            emit_span(
                tracer,
                span_id,
                "backend",
                start=scope.base_time,
                end=scope.base_time + float(result.latency),
                parent_id=scope.span_id,
                detail=(
                    f"{backend.name}: {len(sub_batch)} questions"
                    + (" (probe)" if probe else "")
                    + detail_suffix
                ),
            )
        return _SubRound(
            ok=True,
            latency=float(result.latency),
            result=result,
        )

    def _post_backend(
        self,
        backend: Backend,
        sub_batch: np.ndarray,
        span_id: Optional[str],
        scope,
        *,
        budget: Optional[float] = None,
    ) -> RWLResult:
        """Post one backend's sub-batch through its own RWL.

        While tracing, the backend span becomes the ambient scope, so
        RWL attempt spans nest under it.
        """
        if span_id is None:
            return backend.rwl.ask(sub_batch, budget=budget)
        with span_scope(span_id, base_time=scope.base_time):
            return backend.rwl.ask(sub_batch, budget=budget)

    @staticmethod
    def _observe_backend(
        registry,
        backend: Backend,
        latency: float,
        n_questions: int,
        *,
        outage: bool,
    ) -> None:
        """Record the per-backend labeled series for one sub-round."""
        names = _backend_series(backend.name)
        registry.histogram(names["round_latency"]).observe(latency)
        registry.counter(names["rounds"]).inc()
        if n_questions:
            registry.counter(names["questions_posted"]).inc(n_questions)
        if outage:
            registry.counter(names["outages"]).inc()

    # ------------------------------------------------------------------
    # Hedging
    # ------------------------------------------------------------------
    def hedge_after_threshold(self) -> Optional[float]:
        """The armed hedge threshold in seconds, or ``None`` when unarmed.

        Explicit ``hedge_after`` values arm immediately; derived
        thresholds need ``min_samples`` observed sub-round latencies.
        An infinite threshold never arms (the bit-identity escape hatch).
        """
        config = self.hedge
        if config is None:
            return None
        if config.hedge_after is not None:
            if math.isinf(config.hedge_after):
                return None
            return float(config.hedge_after)
        if len(self._latency_window) < config.min_samples:
            return None
        return (
            float(percentile(list(self._latency_window), config.percentile))
            * config.factor
        )

    def _plan_hedges(
        self,
        assignment: List[np.ndarray],
        remaining: List[int],
        decisions: Dict[int, RoundDecision],
    ) -> Dict[int, Backend]:
        """Pick mirrors for predicted-slow sub-batches; consumes slack.

        A sub-batch hedges when its backend's predicted latency exceeds
        the armed threshold *and* some other posting backend with room
        is predicted strictly faster — mirroring to an equally slow
        backend would only amplify load.  Deterministic: backends are
        scanned in spec order and mirror ties break toward the lower
        index.
        """
        if self.hedge is None or self.hedging_suspended:
            return {}
        threshold = self.hedge_after_threshold()
        if threshold is None:
            return {}
        mirrors: Dict[int, Backend] = {}
        for backend in self.backends:
            sub_batch = assignment[backend.index]
            if not len(sub_batch):
                continue
            if decisions[backend.index] is not RoundDecision.POST:
                continue
            predicted = self._predicted(backend, len(sub_batch))
            if predicted <= threshold:
                continue
            candidates = [
                b
                for b in self.backends
                if b.index != backend.index
                and decisions[b.index] is RoundDecision.POST
                and remaining[b.index] >= len(sub_batch)
            ]
            if not candidates:
                continue
            mirror = min(
                candidates,
                key=lambda b: (
                    self._predicted(
                        b, len(assignment[b.index]) + len(sub_batch)
                    ),
                    b.index,
                ),
            )
            if (
                self._predicted(
                    mirror, len(assignment[mirror.index]) + len(sub_batch)
                )
                >= predicted
            ):
                continue
            mirrors[backend.index] = mirror
            remaining[mirror.index] -= len(sub_batch)
            logger.debug(
                "hedging %s's %d question(s) to %s (predicted %.1f s > "
                "threshold %.1f s)",
                backend.name,
                len(sub_batch),
                mirror.name,
                predicted,
                threshold,
            )
        return mirrors

    # ------------------------------------------------------------------
    # Snapshot / restore (consumed by repro.service.journal)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialize the router's mutable hedging state for a snapshot."""
        return {
            "latency_window": [float(x) for x in self._latency_window],
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "hedge_waste": self.hedge_waste,
            "suspended": self.hedging_suspended,
        }

    def load_state_dict(self, payload: Dict[str, Any]) -> None:
        """Restore the counterpart of :meth:`state_dict`."""
        self._latency_window.clear()
        self._latency_window.extend(
            float(x) for x in payload["latency_window"]
        )
        self.hedges = int(payload["hedges"])
        self.hedge_wins = int(payload["hedge_wins"])
        self.hedge_waste = int(payload["hedge_waste"])
        self.hedging_suspended = bool(payload["suspended"])

    # ------------------------------------------------------------------
    # Assignment
    # ------------------------------------------------------------------
    def _round_capacity(
        self, backend: Backend, decision: RoundDecision
    ) -> int:
        """Distinct questions *backend* may take this round."""
        if decision is RoundDecision.DEFER:
            return 0
        capacity = (
            backend.spec.capacity
            if backend.spec.capacity is not None
            else _UNBOUNDED
        )
        if decision is RoundDecision.PROBE:
            return min(capacity, PROBE_QUESTIONS)
        return capacity

    def _predicted(self, backend: Backend, load: int) -> float:
        """Predicted round latency of *backend* carrying *load* questions."""
        return float(backend.spec.latency(load))

    def _placement_key_function(self) -> Callable[[int, int], Tuple]:
        """The policy's placement key of backend *i* once its load is
        *after* questions; smaller is better.

        Every key ends ``(predicted latency, backend index)``: ties break
        deterministically toward spec order, and :meth:`_assign` reads a
        placement's predicted latency from it.
        """
        latencies = [b.spec.latency for b in self.backends]
        if self.policy == "latency":
            return lambda i, after: (float(latencies[i](after)), i)
        if self.policy == "least-loaded":
            capacities = [b.spec.capacity for b in self.backends]
            return lambda i, after: (
                after / capacities[i] if capacities[i] is not None else float(after),
                float(latencies[i](after)),
                i,
            )
        # weighted-price: cheapest first, predicted latency as tie-break.
        prices = [b.spec.price_per_question for b in self.backends]
        return lambda i, after: (prices[i], float(latencies[i](after)), i)

    def _assign(
        self,
        questions: np.ndarray,
        units: Sequence[Tuple[int, int]],
        decisions: Dict[int, RoundDecision],
        budgets: Optional[Dict[int, float]] = None,
    ) -> Tuple[List[np.ndarray], np.ndarray, List[int]]:
        """Place every unit; returns (per-backend ``(k, 2)`` batches,
        ``(u, 2)`` unposted questions, remaining per-backend capacity),
        both lists indexed by backend index.

        Units are placed by their row counts alone.  Phase 1 keeps units
        whole on the policy-preferred backend with room; phase 2 splits
        units that fit nowhere whole across the remaining slack (largest
        remaining slot first).  Questions that still do not fit stay
        outstanding for the next tick.

        With *budgets*, a unit whose policy pick is predicted to finish
        past the query's remaining latency budget is placed on the
        predicted-fastest candidate instead — near-deadline queries
        trade price/load preferences for speed.

        Each candidate's latency model is evaluated once per unit, and
        not at all when one backend has room and no budget applies.
        Every placement is a run of rows with one target backend (-1 for
        unposted); each batch is then cut out of *questions* with one
        mask over the per-row targets, so it keeps the round's row order.
        """
        backends = self.backends
        load = [0] * len(backends)
        remaining = [
            self._round_capacity(b, decisions[b.index]) for b in backends
        ]
        placement_key = self._placement_key_function()
        targets: List[int] = []
        runs: List[int] = []
        for query_id, size in units:
            fits = [i for i, room in enumerate(remaining) if room >= size] if size else []
            if fits:
                budget = budgets.get(query_id) if budgets is not None else None
                best = fits[0]
                if len(fits) > 1 or budget is not None:
                    keys = {i: placement_key(i, load[i] + size) for i in fits}
                    best = min(fits, key=keys.__getitem__)
                    if budget is not None and keys[best][-2] > budget:
                        best = min(fits, key=lambda i: keys[i][-2:])
                        get_registry().counter("router.budget_overrides").inc()
                targets.append(best)
                runs.append(size)
                load[best] += size
                remaining[best] -= size
                continue
            # Phase 2: no single backend fits the whole unit — carve it
            # over the remaining slack, biggest slot first (fewest seams).
            get_registry().counter("router.split_units").inc()
            spill = sorted(range(len(backends)), key=lambda i: (-remaining[i], i))
            cursor = 0
            for i in spill:
                slack = remaining[i]
                if slack <= 0 or cursor >= size:
                    continue
                chunk = min(slack, size - cursor)
                targets.append(i)
                runs.append(chunk)
                load[i] += chunk
                remaining[i] -= chunk
                cursor += chunk
            targets.append(-1)
            runs.append(size - cursor)
        if len(set(targets)) == 1 and targets[0] >= 0:
            # Every row goes to one backend: the round is its batch.
            assignment = [questions[:0]] * len(backends)
            assignment[targets[0]] = questions
            return assignment, questions[:0], remaining
        target = np.repeat(targets, runs)
        assignment = [questions[target == b.index] for b in backends]
        return assignment, questions[target == -1], remaining

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def hedge_summary(self) -> Dict[str, int]:
        """Cumulative hedging totals (the CLI's hedge line)."""
        return {
            "hedges": self.hedges,
            "wins": self.hedge_wins,
            "waste": self.hedge_waste,
        }

    def summary(self) -> List[Dict[str, object]]:
        """Per-backend cumulative totals (the CLI's fleet table)."""
        return [
            {
                "name": b.name,
                "rounds": b.rounds,
                "questions_posted": b.questions_posted,
                "outages": b.outages,
                "cost": round(b.cost, 6),
                "breaker": b.breaker_state(),
            }
            for b in self.backends
        ]


def _rows(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Concatenate ``(k, 2)`` blocks into one array (``(0, 2)`` if none)."""
    return np.concatenate([*blocks, np.empty((0, 2), np.int64)])
