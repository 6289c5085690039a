"""Per-tick scheduler telemetry: sampling, journal replay, live follow.

Every scheduler tick produces one :class:`TickSample` — a frozen,
JSON-friendly row of the quantities an operator watches: queue depths,
breaker state, plan-cache hit rate, the shared round's latency and size,
and the cumulative outcome counters.  Samples land in three places at
once:

* the scheduler's in-memory ``tick_history`` ring (capped at
  :data:`TICK_HISTORY_LIMIT`, feeding the live dashboard);
* the metrics registry (``service.queue_depth``,
  ``service.active_queries`` gauges and the ``service.round_latency``
  histogram);
* the write-ahead journal, as a ``"tick"`` delta record — recovery
  rebuilds the SLO flight ring from it, and
  ``tdp-repro top`` can replay any journaled run tick by tick
  (:func:`samples_from_journal`) or follow one that is still being
  written (:func:`follow_samples`).

A recovered run re-executes the ticks lost after the last snapshot and
journals them again; :func:`samples_from_records` deduplicates by tick
number keeping the last occurrence, which by the determinism guarantee is
bit-identical to the first.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Union

from repro.errors import InvalidParameterError

#: In-memory ring size of ``MaxScheduler.tick_history``.  Bounded so an
#: unattended ``serve`` run cannot grow without limit; the journal keeps
#: the full series.
TICK_HISTORY_LIMIT = 4096


@dataclasses.dataclass
class TickSample:
    """One scheduler tick's operational state.

    Treat a sample as a value once it is recorded: it is mutable only so
    the scheduler can stamp the SLO verdict (``alerts_active``,
    ``health``) onto the tick's one sample after the engine observed it.

    Attributes:
        tick: 1-based tick number (the value of ``scheduler.ticks`` after
            the tick ran).
        now: simulated clock after the tick, seconds.
        active: queries running in shared rounds.
        waiting: admitted queries waiting for an active slot.
        backlog: queries not yet offered to admission control.
        breaker: fleet circuit-breaker summary: ``"none"`` when no
            backend has a breaker, ``"closed"`` when every circuit is
            closed, otherwise the non-closed backends as ``name:state``
            (``"platform:open"``, ``"fast:half_open,cheap:open"``), a
            one-backend fleet included.
        cache_hit_rate: plan-cache hits / lookups so far (0.0 before any
            lookup).
        round_latency: the shared round's latency this tick (seconds);
            0.0 for a breaker-deferred tick.
        questions: questions answered by this tick's shared round (0 on
            deferral or outage).
        questions_total: cumulative questions posted successfully.
        shared_rounds: cumulative shared rounds completed.
        completed: cumulative queries finished COMPLETED.
        degraded: cumulative queries finished DEGRADED.
        shed: cumulative queries SHED by admission control.
        deferred: whether this tick was a breaker deferral instead of a
            shared round.
        queue_wait_mean: mean arrival-to-first-schedule seconds across
            queries finished so far (0.0 before the first finish).
            Defaulted so journals written before the field existed stay
            replayable.
        deadline_met: cumulative queries that finished inside their
            latency budget (deadline-carrying queries only).  Defaulted,
            like every field below, for pre-deadline journals.
        deadline_breached: cumulative deadline-carrying queries that were
            degraded, shed or finished late.
        brownout_level: the brownout controller's level after this tick
            (0 = off / no controller).
        alerts_active: SLO engine alerts firing after this tick (0 when
            the engine is off).
        health: aggregate health after this tick (``"ok"``/
            ``"degraded"``/``"critical"``), or ``""`` when no SLO engine
            is armed — the empty string keeps pre-SLO journals and the
            dashboard header bit-identical.
    """

    tick: int
    now: float
    active: int
    waiting: int
    backlog: int
    breaker: str
    cache_hit_rate: float
    round_latency: float
    questions: int
    questions_total: int
    shared_rounds: int
    completed: int
    degraded: int
    shed: int
    deferred: bool
    queue_wait_mean: float = 0.0
    deadline_met: int = 0
    deadline_breached: int = 0
    brownout_level: int = 0
    alerts_active: int = 0
    health: str = ""

    @property
    def queue_depth(self) -> int:
        """Admitted-but-waiting plus not-yet-arrived-or-offered queries."""
        return self.waiting + self.backlog

    def to_dict(self) -> Dict[str, Any]:
        # All fields are scalars, so a shallow copy equals
        # dataclasses.asdict at a fraction of its recursive cost — this
        # runs on every journaled/SLO-armed tick.
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TickSample":
        """Rebuild a sample from its journal form.

        Fields with defaults may be absent (a journal written by an older
        version); missing *core* fields still raise, so a garbage payload
        cannot masquerade as a sample.
        """
        kwargs: Dict[str, Any] = {}
        for spec in dataclasses.fields(cls):
            if spec.name in payload:
                kwargs[spec.name] = payload[spec.name]
            elif spec.default is dataclasses.MISSING:
                raise InvalidParameterError(
                    f"tick record is missing field '{spec.name}'"
                )
        return cls(**kwargs)


def samples_from_records(
    records: Iterable[Dict[str, Any]],
) -> List[TickSample]:
    """Extract the tick series from parsed journal records.

    Duplicate tick numbers (a recovered run replaying the ticks lost
    after its last snapshot) collapse to the last occurrence; the result
    is sorted by tick.
    """
    by_tick: Dict[int, TickSample] = {}
    for record in records:
        if record.get("record") != "tick":
            continue
        payload = record.get("payload")
        if isinstance(payload, dict):
            sample = TickSample.from_dict(payload)
            by_tick[sample.tick] = sample
    return [by_tick[tick] for tick in sorted(by_tick)]


def alert_transitions_from_records(
    records: Iterable[Dict[str, Any]],
) -> List["AlertTransition"]:
    """Extract the SLO alert history from parsed journal records.

    Duplicate transitions (a recovered run replaying the ticks lost
    after its last snapshot) collapse by ``(tick, rule, action)``,
    keeping first-occurrence order — which is tick order, since ticks
    replay in order.  This is the ground truth ``tdp-repro health``
    reads and the chaos harness compares across kill/recover.
    """
    from repro.obs.slo import AlertTransition

    seen: Dict[Any, AlertTransition] = {}
    for record in records:
        if record.get("record") != "alert":
            continue
        payload = record.get("payload")
        if not isinstance(payload, dict):
            continue
        key = (payload["tick"], payload["rule"], payload["action"])
        if key not in seen:
            seen[key] = AlertTransition(
                rule=str(payload["rule"]),
                action=str(payload["action"]),
                severity=str(payload["severity"]),
                value=float(payload["value"]),
                tick=int(payload["tick"]),
            )
    return list(seen.values())


def samples_from_journal(path: Union[str, Path]) -> List[TickSample]:
    """Replay a journal file's tick series (corrupt tails tolerated)."""
    from repro.service.journal import read_journal

    return samples_from_records(read_journal(path).records)


def follow_samples(
    path: Union[str, Path],
    poll_interval: float = 0.25,
    timeout: Optional[float] = None,
    _clock: Callable[[], float] = time.monotonic,
    _sleep: Callable[[float], None] = time.sleep,
) -> Iterator[TickSample]:
    """Yield :class:`TickSample` s from a journal as they are written.

    Tails *path* incrementally — safe on a file another process is
    appending to, because the journal only flushes whole lines.  The
    iterator finishes when a ``"complete"`` record appears (the run
    drained) or, with *timeout*, after that many seconds pass without
    one.  A journal mid-write may end in a partial line; it is kept
    buffered until its newline arrives, never parsed early.

    Duplicate tick numbers from an in-place recovery are suppressed by
    yielding only ticks greater than the last one seen.

    Raises:
        InvalidParameterError: non-positive *poll_interval*.
    """
    if poll_interval <= 0:
        raise InvalidParameterError(
            f"poll_interval must be > 0, got {poll_interval}"
        )
    path = Path(path)
    deadline = None if timeout is None else _clock() + timeout
    buffered = ""
    position = 0
    last_tick = -1
    while True:
        if path.exists():
            with open(path, "r", encoding="utf-8") as handle:
                handle.seek(position)
                chunk = handle.read()
                position = handle.tell()
            buffered += chunk
            while "\n" in buffered:
                line, buffered = buffered.split("\n", 1)
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # corrupt line; recovery-grade tolerance
                if not isinstance(record, dict):
                    continue
                kind = record.get("record")
                if kind == "complete":
                    return
                if kind != "tick":
                    continue
                payload = record.get("payload")
                if not isinstance(payload, dict):
                    continue
                sample = TickSample.from_dict(payload)
                if sample.tick > last_tick:
                    last_tick = sample.tick
                    yield sample
        if deadline is not None and _clock() >= deadline:
            return
        _sleep(poll_interval)
