"""Write-ahead journal and deterministic crash recovery for the scheduler.

A crowdsourced workload is hours of paid real time; a requester process
that dies mid-workload must not forfeit it.  :class:`SchedulerJournal`
gives :class:`~repro.service.scheduler.MaxScheduler` durability in the
classic database shape: an **append-only JSONL log** with **periodic
snapshots** of the state the log cannot rebuild.  Every record type has
a reader:

* ``header`` — the constructor arguments (specs, latency, config, seed,
  the backend fleet); :func:`scheduler_from_header` rebuilds from it.
* ``snapshot`` — every ``snapshot_interval`` ticks, the mutable state
  (:func:`snapshot_scheduler`); :func:`recover_scheduler` restores the
  newest intact one.
* ``result`` — one per finished or shed query, ``{"index": i, ...}``
  with the full :class:`~repro.service.query.QueryResult`;
  :func:`read_journal` folds them back into the snapshot's results.
* ``tick`` — the per-tick telemetry sample; ``top``, ``health``,
  :mod:`repro.service.telemetry` and recovery read it.
* ``alert`` — SLO alert transitions; ``health``,
  :func:`~repro.service.telemetry.alert_transitions_from_records` and
  recovery (which rebuilds the SLO flight ring from both) read them.
* ``route`` — each routed tick's decision, the failover audit trail of
  ``docs/backends.md``.
* ``deferred``, ``replan``, ``brownout`` — the rare control decisions
  (all-breakers-open deferral, deadline replan, brownout level change),
  for the operator reading the log (``docs/robustness.md``).
* ``complete`` — the drain marker
  :func:`~repro.service.telemetry.follow_samples` stops at.

A snapshot grows with the *active* set, not the run: the backlog is a
count (it is always a suffix of the header's specs in arrival order) and
the finished results are a count of ``result`` records.  Every run posts
through a fleet — a single-platform run is a one-backend ("solo") fleet —
so a snapshot has one crowd-state shape: a list of per-backend states.
A half-answered round lives in its query's session checkpoint alone —
the round's questions plus the evidence, which holds the answers so far —
so an active query carries no copy of the round.  Every session of a
scheduler selects with its one selector stream, so a snapshot stores
that stream's state once, at top level, and no session payload carries
an ``rng_state``.  Journal version 5; versions 1 to 4 are rejected.

Because the scheduler is deterministic given its seed, recovery is exact:
:func:`recover_scheduler` rebuilds the scheduler from the journal header
(same constructor arguments, hence the same ground truth and RNG streams),
restores the last snapshot, and re-runs.  Ticks that ran after the last
snapshot but before the crash replay *identically* — same RNG states, same
iteration orders, same ``result`` records — so the final
:class:`~repro.service.report.ServiceReport` is bit-identical to the
uninterrupted run's, no matter where the kill landed.  :mod:`repro.chaos`
asserts exactly that property.

Corruption policy (the crash-mid-write shapes):

* missing file, empty file, unparseable header — raise
  :class:`~repro.errors.JournalCorruptError`;
* truncated last record or garbage tail — drop the tail, recover from the
  last valid snapshot (every journal starts with one, so this always
  works once the header is intact).  A resumed journal is first cut back
  to the last intact record, so the resumed run's records stay readable.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.crowd.faults import RetryPolicy
from repro.crowd.multibackend import (
    HedgeConfig,
    backend_spec_from_dict,
    backend_spec_to_dict,
)
from repro.errors import InvalidParameterError, JournalCorruptError
from repro.obs.events import CheckpointWritten, RecoveryCompleted
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import get_registry
from repro.obs.slo import slo_config_from_dict
from repro.obs.tracer import current_tracer
from repro.persistence import (
    allocation_from_dict,
    allocation_to_dict,
    error_model_from_dict,
    error_model_to_dict,
    latency_from_dict,
    latency_to_dict,
    session_from_dict,
    session_to_dict,
    worker_config_from_dict,
    worker_config_to_dict,
)
from repro.service.deadline import BrownoutConfig
from repro.service.plan_cache import PlanCacheStats, PlanKey
from repro.service.query import QueryResult, QuerySpec, QueryState
from repro.service.scheduler import (
    ActiveQuery,
    MaxScheduler,
    ResultTally,
    ServiceConfig,
)
from repro.service.telemetry import (
    alert_transitions_from_records,
    samples_from_records,
)

logger = logging.getLogger(__name__)

#: Bumped on incompatible journal layout changes.
JOURNAL_VERSION = 5


def _json_default(value: Any) -> Any:
    """Coerce numpy scalars leaking into payloads (e.g. latencies)."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


class SchedulerJournal:
    """Append-only JSONL write-ahead journal for one scheduler run.

    Args:
        path: journal file; :meth:`create` truncates, :meth:`resume`
            appends (recovery continues the same file).
        snapshot_interval: snapshot every N ticks (>= 1; default 5).
            Larger intervals write less but replay more ticks on
            recovery; recovery is exact either way.  Use 1 for a
            snapshot at every tick boundary; the default keeps steady
            journaling overhead under a tenth of the run.
        fsync: fsync after every record — durable against power loss, at
            a heavy simulation-throughput cost (default: flush only).
    """

    def __init__(
        self,
        path: Union[str, Path],
        snapshot_interval: int = 5,
        fsync: bool = False,
        _append: bool = False,
    ) -> None:
        if snapshot_interval < 1:
            raise InvalidParameterError(
                f"snapshot_interval must be >= 1, got {snapshot_interval}"
            )
        self.path = Path(path)
        self.snapshot_interval = snapshot_interval
        self.fsync = fsync
        self._handle = open(self.path, "a" if _append else "w", encoding="utf-8")
        self._seq = 0
        self._header_written = _append
        self._closed = False

    @classmethod
    def create(
        cls,
        path: Union[str, Path],
        *,
        snapshot_interval: int = 5,
        fsync: bool = False,
    ) -> "SchedulerJournal":
        """Start a fresh journal (truncating any existing file)."""
        return cls(path, snapshot_interval=snapshot_interval, fsync=fsync)

    @classmethod
    def resume(
        cls,
        path: Union[str, Path],
        *,
        snapshot_interval: int = 5,
        fsync: bool = False,
    ) -> "SchedulerJournal":
        """Continue appending to an existing journal (after recovery)."""
        if not Path(path).exists():
            raise JournalCorruptError(f"no such journal to resume: {path}")
        return cls(
            path, snapshot_interval=snapshot_interval, fsync=fsync, _append=True
        )

    # ------------------------------------------------------------------
    # Scheduler hooks
    # ------------------------------------------------------------------
    def begin(self, scheduler: MaxScheduler) -> None:
        """Write the header + initial snapshot (no-op on a resumed journal)."""
        if self._header_written:
            return
        self._header_written = True
        self._write("header", self._header_payload(scheduler))
        for index, result in enumerate(scheduler._results):
            self.record_result(index, result)
        self.write_snapshot(scheduler)

    def record(self, record_type: str, payload: Dict[str, Any]) -> None:
        """Append one write-ahead record."""
        self._write(record_type, payload)

    def record_result(self, index: int, result: QueryResult) -> None:
        """Append the ``result`` record of the run's *index*-th result."""
        self.record("result", {"index": index, **_result_to_dict(result)})

    def maybe_snapshot(self, scheduler: MaxScheduler) -> None:
        """Snapshot if the tick counter crossed the snapshot interval."""
        if scheduler.ticks % self.snapshot_interval == 0:
            self.write_snapshot(scheduler)

    def write_snapshot(self, scheduler: MaxScheduler) -> None:
        """Serialize the scheduler's state into the journal."""
        payload = snapshot_scheduler(scheduler)
        self._write("snapshot", payload, flush=True)
        get_registry().counter("service.checkpoints").inc()
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit(
                CheckpointWritten(
                    tick=payload["ticks"],
                    n_active=len(payload["active"]),
                    n_waiting=len(payload["waiting"]),
                    n_results=payload["results"],
                ),
                sim_time=payload["now"],
            )

    def complete(self, scheduler: MaxScheduler) -> None:
        """Mark the run drained: final snapshot + completion record."""
        self.write_snapshot(scheduler)
        self._write(
            "complete",
            {"ticks": scheduler.ticks, "makespan": scheduler.now},
            flush=True,
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _header_payload(self, scheduler: MaxScheduler) -> Dict[str, Any]:
        return {
            "version": JOURNAL_VERSION,
            "kind": "scheduler_journal",
            "seed": scheduler.seed,
            "snapshot_interval": self.snapshot_interval,
            "specs": [_spec_to_dict(s) for s in scheduler._specs],
            "latency": latency_to_dict(scheduler.latency),
            "config": dataclasses.asdict(scheduler.config),
            "retry_policy": (
                dataclasses.asdict(scheduler._retry_policy)
                if scheduler._retry_policy is not None
                else None
            ),
            "error_model": error_model_to_dict(scheduler._error_model),
            "worker_config": worker_config_to_dict(scheduler._worker_config),
            "backends": [
                backend_spec_to_dict(s) for s in scheduler._backend_specs
            ],
        }

    def _write(
        self, record_type: str, payload: Dict[str, Any], flush: bool = False
    ) -> None:
        # Delta records are buffered: recovery resumes from the newest
        # intact *snapshot* and re-derives lost ticks deterministically,
        # so the snapshot is the durability boundary.  Flushing (and
        # optionally fsyncing) only there keeps the per-record overhead
        # off the hot path without weakening the recovery guarantee.
        if self._closed:
            raise InvalidParameterError(
                f"journal {self.path} is closed; no further records accepted"
            )
        line = json.dumps(
            {"record": record_type, "seq": self._seq, "payload": payload},
            separators=(",", ":"),
            default=_json_default,
        )
        self._handle.write(line + "\n")
        if flush:
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
        self._seq += 1

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if not self._closed:
            self._closed = True
            self._handle.close()

    def __enter__(self) -> "SchedulerJournal":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Snapshot / restore of the full scheduler state
# ----------------------------------------------------------------------

def snapshot_scheduler(scheduler: MaxScheduler) -> Dict[str, Any]:
    """Serialize the mutable scheduler state the log cannot rebuild.

    The immutable construction arguments (specs, latency, config, seed)
    live in the journal header; this captures what evolves: the clock and
    counters, the selector stream's bit-generator state, the
    waiting/active queues, every session (mid-round included),
    plan-cache contents and each backend's state (RNG bit-generator
    states of its platform, RWL and fault streams, platform/fault
    statistics and circuit breaker).  The backlog is its
    length — a suffix of the header's specs in arrival order — and the
    results are their count; each result is in its own ``result`` record.
    The SLO flight ring is left out: :func:`fold_results` rebuilds it.
    """
    return {
        "now": float(scheduler._now),
        "ticks": scheduler._ticks,
        "shared_rounds": scheduler._shared_rounds,
        "questions_posted": scheduler._questions_posted,
        "next_seq": scheduler._next_seq,
        "selector_rng": scheduler.selector_rng.bit_generator.state,
        "backlog": len(scheduler._backlog),
        "waiting": [_waiting_query_payload(q) for q in scheduler._waiting],
        "active": [_active_query_to_dict(q) for q in scheduler._active],
        "results": len(scheduler._results),
        "plan_cache": {
            "entries": [
                [dataclasses.asdict(key), allocation_to_dict(allocation)]
                for key, allocation in scheduler.plan_cache.items()
            ],
            "stats": dataclasses.asdict(scheduler.plan_cache.stats),
        },
        "backends": [
            backend.state_dict() for backend in scheduler._router.backends
        ],
        "router": (
            scheduler._router.state_dict()
            if scheduler._router.hedge is not None
            else None
        ),
        "brownout": (
            scheduler._brownout.state_dict()
            if scheduler._brownout is not None
            else None
        ),
        "slo": (
            scheduler._slo.state_dict()
            if scheduler._slo is not None
            else None
        ),
    }


def restore_scheduler_state(
    scheduler: MaxScheduler, snapshot: Dict[str, Any]
) -> None:
    """Overwrite *scheduler*'s mutable state with a snapshot's.

    The scheduler must have been constructed from the matching journal
    header (same seed/specs/config), so its immutable pieces — ground
    truth, element offsets, policy, allocator — are already identical.
    *snapshot* carries its results and flight ring folded in, as
    :func:`read_journal` and :func:`fold_results` return it; a missing
    or malformed slot raises :class:`JournalCorruptError`.
    """
    try:
        scheduler._now = float(snapshot["now"])
        scheduler._ticks = int(snapshot["ticks"])
        scheduler._shared_rounds = int(snapshot["shared_rounds"])
        scheduler._questions_posted = int(snapshot["questions_posted"])
        scheduler._next_seq = int(snapshot["next_seq"])
        backlog = int(snapshot["backlog"])
        if backlog > len(scheduler._backlog):
            raise JournalCorruptError(
                f"snapshot backlog of {backlog} exceeds the header's "
                f"{len(scheduler._backlog)} specs"
            )
        while len(scheduler._backlog) > backlog:
            scheduler._backlog.popleft()
        stream = scheduler._selector_rng = _generator_from_state(
            snapshot["selector_rng"]
        )
        scheduler._waiting = [
            _active_query_from_dict(d, stream) for d in snapshot["waiting"]
        ]
        scheduler._active = [
            _active_query_from_dict(d, stream) for d in snapshot["active"]
        ]
        scheduler._results = [_result_from_dict(d) for d in snapshot["results"]]
        scheduler._tally = ResultTally.of(scheduler._results)
        # The crashed run already metered these results.
        scheduler._metered = len(scheduler._results)

        backends_payload = snapshot["backends"]
        fleet = scheduler._router.backends
        if not isinstance(backends_payload, list) or len(backends_payload) != len(
            fleet
        ):
            raise JournalCorruptError(
                "snapshot backend states do not match the configured fleet"
            )
        for backend, backend_payload in zip(fleet, backends_payload):
            backend.load_state_dict(backend_payload)

        cache = snapshot["plan_cache"]
        scheduler.plan_cache.clear()
        for key_payload, allocation_payload in cache["entries"]:
            scheduler.plan_cache.put(
                PlanKey(**key_payload), allocation_from_dict(allocation_payload)
            )
        # After the puts, so re-inserting does not perturb the counters.
        scheduler.plan_cache.stats = PlanCacheStats(**cache["stats"])

        if snapshot["router"] is not None:
            scheduler._router.load_state_dict(snapshot["router"])
        if snapshot["brownout"] is not None and scheduler._brownout is not None:
            scheduler._brownout.load_state_dict(snapshot["brownout"])
            # Effects (repetition, hedging suspension) are a pure function
            # of the restored level; re-derive them so the replay matches.
            scheduler._apply_brownout_effects()
        if snapshot["slo"] is not None and scheduler._slo is not None:
            scheduler._slo.load_state_dict(snapshot["slo"])
        if scheduler._flight is not None:
            scheduler._flight = FlightRecorder(scheduler._flight.capacity)
            for entry in snapshot["flight"]:
                scheduler._flight.record(**entry)
    except (KeyError, TypeError) as error:
        raise JournalCorruptError(
            f"snapshot is missing or malformed: {error}"
        ) from None


def _optional_float(value: Any) -> Optional[float]:
    return float(value) if value is not None else None


def _spec_to_dict(spec: QuerySpec) -> Dict[str, Any]:
    return {
        "query_id": spec.query_id,
        "n_elements": spec.n_elements,
        "budget": spec.budget,
        "priority": spec.priority,
        "latency_slo": spec.latency_slo,
        "arrival_time": float(spec.arrival_time),
        "deadline": spec.deadline,
    }


def _spec_from_dict(payload: Dict[str, Any]) -> QuerySpec:
    return QuerySpec(
        query_id=int(payload["query_id"]),
        n_elements=int(payload["n_elements"]),
        budget=int(payload["budget"]),
        priority=int(payload["priority"]),
        latency_slo=_optional_float(payload["latency_slo"]),
        arrival_time=float(payload["arrival_time"]),
        deadline=_optional_float(payload["deadline"]),
    )


def _waiting_query_payload(query: ActiveQuery) -> Dict[str, Any]:
    """Serialize a *waiting* query, reusing the payload across snapshots.

    A waiting query is frozen from admission to promotion: its session
    (allocation, empty evidence) is created in ``_admit`` and first
    touched only after the query's state flips to ``RUNNING`` and it
    joins a shared round.  Re-serializing it every snapshot is
    therefore pure waste — under deep admission queues the waiting list
    dominates snapshot cost.  The cache rides on the query object itself
    so it dies with it, and the ``QUEUED`` check makes staleness
    impossible: any promoted query is rebuilt fresh.
    """
    if query.state is not QueryState.QUEUED:
        return _active_query_to_dict(query)
    cached = query.__dict__.get("_waiting_payload")
    if cached is None:
        cached = _active_query_to_dict(query)
        query.__dict__["_waiting_payload"] = cached
    return cached


def _active_query_to_dict(query: ActiveQuery) -> Dict[str, Any]:
    session = session_to_dict(query.session)
    # The scheduler's selector stream is snapshotted once, at top level.
    del session["rng_state"]
    return {
        "spec": _spec_to_dict(query.spec),
        "seq": query.seq,
        "offset": query.offset,
        "session": session,
        "plan_cache_hit": query.plan_cache_hit,
        "state": query.state.value,
        "admitted_time": float(query.admitted_time),
        "first_scheduled_time": _optional_float(query.first_scheduled_time),
        "times_scheduled": query.times_scheduled,
        "round_attempts": query.round_attempts,
        "deadline_at": _optional_float(query.deadline_at),
    }


def _active_query_from_dict(
    payload: Dict[str, Any], stream: np.random.Generator
) -> ActiveQuery:
    """Rebuild a query whose session selects with the scheduler's *stream*."""
    session = session_from_dict(
        {**payload["session"], "rng_state": stream.bit_generator.state}
    )
    session._rng = stream
    return ActiveQuery(
        spec=_spec_from_dict(payload["spec"]),
        seq=int(payload["seq"]),
        offset=int(payload["offset"]),
        session=session,
        plan_cache_hit=bool(payload["plan_cache_hit"]),
        state=QueryState(payload["state"]),
        admitted_time=float(payload["admitted_time"]),
        first_scheduled_time=_optional_float(payload["first_scheduled_time"]),
        times_scheduled=int(payload["times_scheduled"]),
        round_attempts=int(payload["round_attempts"]),
        deadline_at=_optional_float(payload["deadline_at"]),
    )


def _result_to_dict(result: QueryResult) -> Dict[str, Any]:
    return {
        "spec": _spec_to_dict(result.spec),
        "state": result.state.value,
        "winner": result.winner,
        "correct": result.correct,
        "singleton": result.singleton,
        "latency": float(result.latency),
        "queue_wait": float(result.queue_wait),
        "rounds": result.rounds,
        "questions_posted": result.questions_posted,
        "plan_cache_hit": result.plan_cache_hit,
        "slo_met": result.slo_met,
        "shed_reason": result.shed_reason,
        "deadline": result.deadline,
        "deadline_outcome": result.deadline_outcome,
    }


def _result_from_dict(payload: Dict[str, Any]) -> QueryResult:
    return QueryResult(
        spec=_spec_from_dict(payload["spec"]),
        state=QueryState(payload["state"]),
        winner=(
            int(payload["winner"]) if payload["winner"] is not None else None
        ),
        correct=payload["correct"],
        singleton=bool(payload["singleton"]),
        latency=float(payload["latency"]),
        queue_wait=float(payload["queue_wait"]),
        rounds=int(payload["rounds"]),
        questions_posted=int(payload["questions_posted"]),
        plan_cache_hit=bool(payload["plan_cache_hit"]),
        slo_met=payload["slo_met"],
        shed_reason=payload["shed_reason"],
        deadline=_optional_float(payload["deadline"]),
        deadline_outcome=payload["deadline_outcome"],
    )


def _generator_from_state(state: Dict[str, Any]) -> np.random.Generator:
    if not isinstance(state, dict) or "bit_generator" not in state:
        raise JournalCorruptError(
            "snapshot RNG state is not a bit-generator state dict"
        )
    bit_generator_cls = getattr(np.random, str(state["bit_generator"]), None)
    if bit_generator_cls is None:
        raise JournalCorruptError(
            f"unknown bit generator {state['bit_generator']!r} in snapshot"
        )
    bit_generator = bit_generator_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


# ----------------------------------------------------------------------
# Reading journals back
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class JournalContents:
    """Parsed view of a journal file.

    Attributes:
        header: the header record's payload.
        records: every parsed record (header included, corrupt tail
            excluded), in file order.
        last_snapshot: payload of the newest intact snapshot, its
            ``results`` count folded into the full result list
            (:func:`fold_results`).
        tail_corrupt: whether a truncated/garbage tail was discarded.
        intact_bytes: byte length of the intact records — where a
            resumed journal cuts off a corrupt tail.
    """

    header: Dict[str, Any]
    records: Tuple[Dict[str, Any], ...]
    last_snapshot: Dict[str, Any]
    tail_corrupt: bool
    intact_bytes: int


def fold_results(
    records: Sequence[Dict[str, Any]], snapshot: Dict[str, Any]
) -> Dict[str, Any]:
    """*snapshot* with the state its log records hold folded back in.

    ``result`` records are folded by index, last write wins: a recovered
    run replays the indices after its snapshot with identical content.
    With the SLO layer armed, ``flight`` lists the flight ring's entries
    through the snapshot's tick in the order the scheduler records them —
    each tick's sample, then its alert transitions — one copy of each
    replayed duplicate; restoring keeps the newest ``SLOConfig.ring``.

    Raises:
        JournalCorruptError: a counted index has no ``result`` record.
    """
    try:
        by_index = {
            record["payload"]["index"]: record["payload"]
            for record in records
            if record.get("record") == "result"
        }
        results = [by_index[i] for i in range(int(snapshot["results"]))]
    except (KeyError, TypeError) as missing:
        raise JournalCorruptError(
            f"snapshot counts result {missing} but no result record holds it"
        ) from None
    folded = {**snapshot, "results": results}
    # A snapshot without the slot is restore_scheduler_state's to reject.
    if snapshot.get("slo") is not None:
        alerts: Dict[int, List[Dict[str, Any]]] = {}
        for transition in alert_transitions_from_records(records):
            alerts.setdefault(transition.tick, []).append(
                {"kind": "alert", **dataclasses.asdict(transition)}
            )
        ring = folded["flight"] = []
        for sample in samples_from_records(records):
            if sample.tick > snapshot["ticks"]:
                break
            ring.append({"kind": "tick", **sample.to_dict()})
            ring.extend(alerts.get(sample.tick, ()))
    return folded


def read_journal(path: Union[str, Path]) -> JournalContents:
    """Parse a journal, tolerating a corrupt tail.

    Raises:
        JournalCorruptError: missing/empty file, unparseable header, no
            intact snapshot to recover from, or a missing result record.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise JournalCorruptError(f"no such journal: {path}") from None
    if not data.strip():
        raise JournalCorruptError(f"journal {path} is empty")
    # A journal's every line ends with "\n"; a non-empty final fragment
    # is a record that was being written when the process died, so it is
    # never trusted, even when it parses.
    *lines, fragment = data.split(b"\n")
    records: List[Dict[str, Any]] = []
    intact_bytes = 0
    tail_corrupt = fragment != b""
    for line in lines:
        if line:
            try:
                record = json.loads(line)
            except ValueError:  # JSON or UTF-8 decoding
                record = None
            if not isinstance(record, dict) or "record" not in record:
                tail_corrupt = True
                break
            records.append(record)
        intact_bytes += len(line) + 1
    if tail_corrupt:
        logger.warning(
            "journal %s has a corrupt tail: dropping %d trailing byte(s)",
            path,
            len(data) - intact_bytes,
        )

    if not records or records[0].get("record") != "header":
        raise JournalCorruptError(
            f"journal {path} has no parseable header record"
        )
    header = records[0].get("payload")
    if not isinstance(header, dict) or header.get("kind") != "scheduler_journal":
        raise JournalCorruptError(
            f"journal {path} header is not a scheduler_journal payload"
        )
    version = header.get("version")
    if version != JOURNAL_VERSION:
        raise JournalCorruptError(
            f"journal {path} has version {version!r}; this build reads "
            f"version {JOURNAL_VERSION}"
        )
    last_snapshot: Optional[Dict[str, Any]] = None
    for record in records:
        if record.get("record") == "snapshot":
            payload = record.get("payload")
            if isinstance(payload, dict):
                last_snapshot = payload
    if last_snapshot is None:
        raise JournalCorruptError(
            f"journal {path} contains no intact snapshot to recover from"
        )
    return JournalContents(
        header=header,
        records=tuple(records),
        last_snapshot=fold_results(records, last_snapshot),
        tail_corrupt=tail_corrupt,
        intact_bytes=intact_bytes,
    )


def journal_results(path: Union[str, Path]) -> Tuple[QueryResult, ...]:
    """The results a journal's last snapshot counts, in ``query_id`` order.

    For a drained run this equals its :class:`ServiceReport`'s results.
    """
    folded = read_journal(path).last_snapshot["results"]
    return tuple(
        sorted(map(_result_from_dict, folded), key=lambda r: r.spec.query_id)
    )


def service_config_from_dict(payload: Dict[str, Any]) -> ServiceConfig:
    """Rebuild a :class:`ServiceConfig` from its journal-header form.

    ``dataclasses.asdict`` flattens the nested ``hedge``/``brownout``/
    ``slo`` configs into plain dicts; this rebuilds them.
    """
    data = dict(payload)
    hedge = data.get("hedge")
    if isinstance(hedge, dict):
        data["hedge"] = HedgeConfig(**hedge)
    brownout = data.get("brownout")
    if isinstance(brownout, dict):
        data["brownout"] = BrownoutConfig(**brownout)
    slo = data.get("slo")
    if isinstance(slo, dict):
        data["slo"] = slo_config_from_dict(slo)
    return ServiceConfig(**data)


def scheduler_from_header(header: Dict[str, Any]) -> MaxScheduler:
    """Reconstruct a pristine scheduler from a journal header.

    The constructor re-derives everything seeded — ground truth, element
    offsets, RNG streams — identically to the original run.
    """
    try:
        specs = [_spec_from_dict(d) for d in header["specs"]]
        latency = latency_from_dict(header["latency"])
        config = service_config_from_dict(header["config"])
        retry_payload = header["retry_policy"]
        retry_policy = (
            RetryPolicy(**retry_payload) if retry_payload is not None else None
        )
        error_model = error_model_from_dict(header["error_model"])
        worker_config = worker_config_from_dict(header["worker_config"])
        backends = [backend_spec_from_dict(d) for d in header["backends"]]
        seed = header["seed"]
    except (KeyError, TypeError) as error:
        raise JournalCorruptError(
            f"journal header is missing or malformed: {error}"
        ) from None
    return MaxScheduler(
        specs,
        latency,
        seed=seed,
        config=config,
        retry_policy=retry_policy,
        error_model=error_model,
        worker_config=worker_config,
        backends=backends,
    )


def recover_scheduler(
    journal_path: Union[str, Path],
    *,
    resume_journal: bool = True,
    fsync: bool = False,
) -> MaxScheduler:
    """Rebuild a crashed scheduler from its write-ahead journal.

    Restores the newest intact snapshot and relies on determinism for the
    rest: ticks lost after that snapshot re-execute identically when the
    caller drives the returned scheduler (``scheduler.run()`` completes
    the workload with a report bit-identical to an uninterrupted run).

    Args:
        journal_path: the journal the crashed run was writing.
        resume_journal: keep journaling into the same file (default), so
            the recovered run is itself recoverable.
        fsync: fsync policy for the resumed journal.

    Raises:
        JournalCorruptError: when the journal is missing, empty, or has
            no intact header/snapshot.
    """
    contents = read_journal(journal_path)
    scheduler = scheduler_from_header(contents.header)
    restore_scheduler_state(scheduler, contents.last_snapshot)
    get_registry().counter("service.recoveries").inc()
    tracer = current_tracer()
    if tracer.enabled:
        tracer.emit(
            RecoveryCompleted(
                snapshot_tick=int(contents.last_snapshot["ticks"]),
                records_read=len(contents.records),
                tail_corrupt=contents.tail_corrupt,
            ),
            sim_time=scheduler.now,
        )
    logger.info(
        "recovered scheduler from %s at tick %d (%d records%s)",
        journal_path,
        scheduler.ticks,
        len(contents.records),
        ", corrupt tail dropped" if contents.tail_corrupt else "",
    )
    if resume_journal:
        if contents.tail_corrupt:
            # Cut the torn tail off, or it would hide every record the
            # resumed run appends from the next read.
            os.truncate(journal_path, contents.intact_bytes)
        snapshot_interval = int(contents.header["snapshot_interval"])
        journal = SchedulerJournal.resume(
            journal_path, snapshot_interval=snapshot_interval, fsync=fsync
        )
        scheduler.attach_journal(journal)
    return scheduler
