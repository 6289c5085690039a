"""Write-ahead journal and deterministic crash recovery for the scheduler.

A crowdsourced workload is hours of paid real time; a requester process
that dies mid-workload must not forfeit it.  :class:`SchedulerJournal`
gives :class:`~repro.service.scheduler.MaxScheduler` durability in the
classic database shape: an **append-only JSONL log** with **periodic
snapshots** of the state the log cannot rebuild.  Every record type has
a reader:

* ``header`` — the constructor arguments (the specs as columns, latency,
  config, seed, the backend fleet); :func:`scheduler_from_header`
  rebuilds from it.
* ``snapshot`` — every ``snapshot_interval`` ticks, the mutable state
  (:func:`snapshot_scheduler`); :func:`recover_scheduler` restores the
  newest intact one.
* ``results`` — one per batch of queries leaving the scheduler together,
  ``{"first": i, ...}`` with one column per
  :class:`~repro.service.query.QueryResult` field (the spec by its query
  id); :func:`read_journal` folds them back into the snapshot's results.
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
the finished results are a count of rows in ``results`` records.  The
waiting and active queries are column tables, one row per query, its
session's evidence and open round included (a half-answered round is
its questions plus the evidence, which holds the answers so far).
Every run posts through a fleet — a single-platform run is a one-backend
("solo") fleet — so a snapshot has one crowd-state shape: a list of
per-backend states.  Every session of a scheduler selects with its one
selector stream, whose state a snapshot stores once, at top level.
Journal version 6; versions 1 to 5 are rejected.

Because the scheduler is deterministic given its seed, recovery is exact:
:func:`recover_scheduler` rebuilds the scheduler from the journal header
(same constructor arguments, hence the same ground truth and RNG streams),
restores the last snapshot, and re-runs.  Ticks that ran after the last
snapshot but before the crash replay *identically* — same RNG states, same
iteration orders, same ``results`` records — so the final
:class:`~repro.service.report.ServiceReport` is bit-identical to the
uninterrupted run's, no matter where the kill landed.  :mod:`repro.chaos`
asserts exactly that property.

Corruption policy (the crash-mid-write shapes):

* missing file, empty file, unparseable header, a malformed column —
  raise :class:`~repro.errors.JournalCorruptError`;
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
from itertools import accumulate
from operator import attrgetter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.allocation import Allocation
from repro.crowd.faults import RetryPolicy
from repro.crowd.multibackend import (
    HedgeConfig,
    backend_spec_from_dict,
    backend_spec_to_dict,
)
from repro.engine.session import MaxSession
from repro.errors import (
    InconsistentAnswersError,
    InvalidParameterError,
    JournalCorruptError,
)
from repro.graphs.answer_graph import AnswerGraph
from repro.obs.events import CheckpointWritten, RecoveryCompleted
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import get_registry
from repro.obs.slo import slo_config_from_dict
from repro.obs.tracer import current_tracer
from repro.persistence import (
    error_model_from_dict,
    error_model_to_dict,
    generator_from_state,
    latency_from_dict,
    latency_to_dict,
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
JOURNAL_VERSION = 6


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
            snapshot at every tick boundary.
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
        self.record_results(0, scheduler._results)
        self.write_snapshot(scheduler)

    def record(self, record_type: str, payload: Dict[str, Any]) -> None:
        """Append one write-ahead record."""
        self._write(record_type, payload)

    def record_results(
        self, first_index: int, results: Sequence[QueryResult]
    ) -> None:
        """Append the ``results`` record of the run's results from
        *first_index* on: one column per field (none when empty)."""
        if results:
            payload = _columns(_RESULT_FIELDS, map(_result_row, results))
            self.record("results", {"first": first_index, **payload})

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
                    n_active=len(payload["active"]["query_id"]),
                    n_waiting=len(payload["waiting"]["query_id"]),
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
            "specs": _columns(
                _SPEC_FIELDS, map(attrgetter(*_SPEC_FIELDS), scheduler._specs)
            ),
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
# Column tables
# ----------------------------------------------------------------------
#: The header's ``specs`` columns: the :class:`QuerySpec` fields.
_SPEC_FIELDS = tuple(field.name for field in dataclasses.fields(QuerySpec))
#: A ``results`` record's columns: the :class:`QueryResult` fields, the
#: spec as its query id (the header holds the specs).
_RESULT_FIELDS = ("query_id",) + tuple(
    field.name for field in dataclasses.fields(QueryResult)
)[1:]
_result_row = attrgetter("spec.query_id", "state.value", *_RESULT_FIELDS[2:])
#: The per-query columns of a snapshot's ``waiting`` and ``active``
#: tables.  Each session's sorted directed answer keys ``winner * n +
#: loser`` are the flat ``evidence`` column, cut by ``n_evidence``; its
#: open round's rows, keyed the same way in selection order, are the flat
#: ``pending`` column, cut by ``n_pending`` (0: no round open).
_QUERY_FIELDS = (
    "query_id", "seq", "offset", "state", "plan_cache_hit",
    "admitted_time", "first_scheduled_time", "deadline_at",
    "times_scheduled", "round_attempts", "round_index", "questions_posted",
    "rounds_executed", "round_budgets", "element_sequence", "allocator",
    "n_evidence", "n_pending",
)
_query_row = attrgetter(
    "spec.query_id", "seq", "offset", "state.value", *_QUERY_FIELDS[4:10],
    *(f"session.{name}" for name in _QUERY_FIELDS[10:13]),
    "session.allocation.round_budgets", "session.allocation.element_sequence",
    "session.allocation.allocator_name",
)


def _columns(fields: Sequence[str], rows: Any) -> Dict[str, List[Any]]:
    """*rows* (tuples in *fields* order) as one list per field."""
    columns = list(zip(*rows)) or [()] * len(fields)
    return {name: list(column) for name, column in zip(fields, columns)}


def _table(table: Any, fields: Sequence[str], what: str) -> List[List[Any]]:
    """The columns *fields* of *table*, lists of one length."""
    try:
        columns = [table[name] for name in fields]
    except KeyError as missing:
        raise JournalCorruptError(f"{what} lacks column {missing}") from None
    except TypeError:
        raise JournalCorruptError(f"{what} is not a table of columns") from None
    if not all(type(c) is list for c in columns) or len(set(map(len, columns))) > 1:
        raise JournalCorruptError(f"{what} columns are not lists of one length")
    return columns


def _answer_rows(
    table: Dict[str, Any], name: str, sizes: List[int], counts: List[Any]
) -> List[np.ndarray]:
    """Flat key column *name* as each row's ``(k, 2)`` pairs: its ints,
    cut by *counts*, are keys ``a * n + b`` in ``[0, n²)`` with ``a != b``
    for the row's collection size ``n``."""
    keys = table.get(name)
    if (
        type(keys) is not list
        or not set(map(type, keys)) | set(map(type, counts)) <= {int}
        or min(counts, default=0) < 0
        or sum(counts) != len(keys)
    ):
        raise JournalCorruptError(f"snapshot {name} keys do not fit their counts")
    keys = np.array(keys, np.int64)
    n = np.repeat(np.array(sizes, np.int64), counts)
    first, second = np.divmod(keys, n)
    if np.count_nonzero((keys < 0) | (first >= n) | (first == second)):
        raise JournalCorruptError(f"snapshot {name} holds a key off [0, n²)")
    pairs = np.column_stack((first, second))
    return [pairs[end - k:end] for k, end in zip(counts, accumulate(counts))]


def _allocation(budgets: Any, planned: Any, name: Any) -> Allocation:
    planned = tuple(planned) if planned is not None else None
    return Allocation(tuple(budgets), planned, str(name))


def _query_table(queries: Sequence[ActiveQuery]) -> Dict[str, List[Any]]:
    """*queries* as a snapshot's ``waiting`` or ``active`` table."""
    rows = []
    evidence: List[int] = []
    pending: List[int] = []
    for query in queries:
        n = query.spec.n_elements
        keys = query.session.evidence.sorted_keys()
        asked = [a * n + b for a, b in query.session.pending or ()]
        evidence += keys
        pending += asked
        rows.append(_query_row(query) + (len(keys), len(asked)))
    table = _columns(_QUERY_FIELDS, rows)
    return {**table, "evidence": evidence, "pending": pending}


def _queries_from_table(
    table: Dict[str, Any], scheduler: MaxScheduler, specs: Dict[int, QuerySpec]
) -> List[ActiveQuery]:
    """The queries of a ``waiting`` or ``active`` table; every session
    selects with the scheduler's selector stream."""
    columns = _table(table, _QUERY_FIELDS, "snapshot query table")
    query_specs = [specs[query_id] for query_id in columns[0]]
    sizes = [spec.n_elements for spec in query_specs]
    queries = []
    for (spec, answers, asked, _, seq, offset, state, hit, admitted,
         first_scheduled, deadline_at, times_scheduled, round_attempts,
         round_index, questions_posted, rounds_executed, *allocation, _, _,
         ) in zip(
        query_specs,
        _answer_rows(table, "evidence", sizes, columns[-2]),
        _answer_rows(table, "pending", sizes, columns[-1]),
        *columns,
    ):
        evidence = AnswerGraph(range(spec.n_elements))
        evidence.record_pairs(answers)
        session = MaxSession.restore(
            _allocation(*allocation), scheduler._selector, spec.n_elements,
            scheduler._selector_rng, evidence=evidence,
            round_index=int(round_index), questions_posted=int(questions_posted),
            rounds_executed=int(rounds_executed),
            pending=asked if len(asked) else None,
        )
        queries.append(ActiveQuery(
            spec, int(seq), int(offset), session, bool(hit), QueryState(state),
            float(admitted), _optional_float(first_scheduled),
            times_scheduled=int(times_scheduled),
            round_attempts=int(round_attempts),
            deadline_at=_optional_float(deadline_at),
        ))
    return queries


# ----------------------------------------------------------------------
# Snapshot / restore of the full scheduler state
# ----------------------------------------------------------------------

def snapshot_scheduler(scheduler: MaxScheduler) -> Dict[str, Any]:
    """Serialize the mutable scheduler state the log cannot rebuild.

    The immutable construction arguments (specs, latency, config, seed)
    live in the journal header; this captures what evolves: the clock and
    counters, the selector stream's bit-generator state, the waiting and
    active queries as column tables (every session, mid-round included),
    the plan cache's entries as rows and each backend's state (RNG
    bit-generator states of its platform, RWL and fault streams,
    platform/fault statistics and circuit breaker).  The backlog is its
    length — a suffix of the header's specs in arrival order — and the
    results are their count; they are in the ``results`` records.
    The SLO flight ring is left out: :func:`fold_results` rebuilds it.
    """
    cache = scheduler.plan_cache
    return {
        "now": float(scheduler._now),
        "ticks": scheduler._ticks,
        "shared_rounds": scheduler._shared_rounds,
        "questions_posted": scheduler._questions_posted,
        "next_seq": scheduler._next_seq,
        "selector_rng": scheduler.selector_rng.bit_generator.state,
        "backlog": len(scheduler._backlog),
        "waiting": _query_table(scheduler._waiting),
        "active": _query_table(scheduler._active),
        "results": len(scheduler._results),
        "plan_cache": {
            "entries": [
                [key.n_elements, key.budget, key.latency_key, key.repetition,
                 allocation.round_budgets, allocation.element_sequence,
                 allocation.allocator_name]
                for key, allocation in cache.items()
            ],
            "stats": [cache.stats.hits, cache.stats.misses, cache.stats.evictions],
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
        scheduler._selector_rng = generator_from_state(snapshot["selector_rng"])
        specs = {spec.query_id: spec for spec in scheduler._specs}
        for name in ("waiting", "active"):
            queries = _queries_from_table(snapshot[name], scheduler, specs)
            setattr(scheduler, f"_{name}", queries)
        scheduler._results = _results_from_rows(snapshot["results"], specs)
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

        cache = scheduler.plan_cache
        cache.clear()
        for n, budget, latency_key, repetition, *allocation in snapshot[
            "plan_cache"
        ]["entries"]:
            cache.put(
                PlanKey(int(n), int(budget), str(latency_key), int(repetition)),
                _allocation(*allocation),
            )
        # After the puts, so re-inserting does not perturb the counters.
        hits, misses, evictions = map(int, snapshot["plan_cache"]["stats"])
        cache.stats = PlanCacheStats(hits, misses, evictions)

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
    except (
        KeyError, TypeError, ValueError, OverflowError, InconsistentAnswersError
    ) as error:
        raise JournalCorruptError(
            f"snapshot is missing or malformed: {error}"
        ) from None


def _optional_float(value: Any) -> Optional[float]:
    return float(value) if value is not None else None


def _specs_from_columns(table: Dict[str, Any]) -> List[QuerySpec]:
    return [
        QuerySpec(
            int(query_id), int(n_elements), int(budget), int(priority),
            _optional_float(latency_slo), float(arrival_time),
            _optional_float(deadline),
        )
        for (query_id, n_elements, budget, priority, latency_slo,
             arrival_time, deadline) in zip(
            *_table(table, _SPEC_FIELDS, "header specs")
        )
    ]


def _results_from_rows(
    rows: Sequence[Sequence[Any]], specs: Dict[int, QuerySpec]
) -> List[QueryResult]:
    """The results of :func:`fold_results`' rows."""
    return [
        QueryResult(
            specs[query_id], QueryState(state),
            int(winner) if winner is not None else None, correct,
            bool(singleton), float(latency), float(queue_wait), int(rounds),
            int(questions_posted), bool(plan_cache_hit), slo_met,
            shed_reason, _optional_float(deadline), deadline_outcome,
        )
        for (query_id, state, winner, correct, singleton, latency,
             queue_wait, rounds, questions_posted, plan_cache_hit, slo_met,
             shed_reason, deadline, deadline_outcome) in rows
    ]


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
            ``results`` count folded into one row per result
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

    ``results`` records are expanded by index into one row per result
    (a tuple in :data:`_RESULT_FIELDS` order), last write wins: a
    recovered run replays the batches after its snapshot identically.
    With the SLO layer armed, ``flight`` lists the flight ring's entries
    through the snapshot's tick in the order the scheduler records them —
    each tick's sample, then its alert transitions — one copy of each
    replayed duplicate; restoring keeps the newest ``SLOConfig.ring``.

    Raises:
        JournalCorruptError: a ``results`` record is malformed, or a
            counted index has none.
    """
    by_index: Dict[int, Tuple[Any, ...]] = {}
    for record in records:
        if record.get("record") == "results":
            payload = record.get("payload")
            rows = zip(*_table(payload, _RESULT_FIELDS, "results record"))
            first = payload.get("first")
            if type(first) is not int or first < 0:
                raise JournalCorruptError(f"results record starts at {first!r}")
            by_index.update(enumerate(rows, first))
    try:
        results = [by_index[i] for i in range(int(snapshot["results"]))]
    except (KeyError, TypeError, ValueError) as missing:
        raise JournalCorruptError(
            f"snapshot counts result {missing} but no results record holds it"
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
            intact snapshot to recover from, or a missing or malformed
            ``results`` record.
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
    contents = read_journal(path)
    try:
        specs = {
            spec.query_id: spec
            for spec in _specs_from_columns(contents.header["specs"])
        }
        results = _results_from_rows(contents.last_snapshot["results"], specs)
    except (KeyError, TypeError, ValueError) as error:
        raise JournalCorruptError(
            f"journal results are malformed: {error}"
        ) from None
    return tuple(sorted(results, key=lambda r: r.spec.query_id))


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
        specs = _specs_from_columns(header["specs"])
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
    except (KeyError, TypeError, ValueError) as error:
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
