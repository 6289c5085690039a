"""JSON persistence for the library's value objects.

Crowdsourced MAX operations run for minutes to hours of wall-clock time; a
deployment wants to checkpoint the accumulated evidence between rounds and
archive finished runs.  This module serializes the three long-lived value
types — allocations, answer graphs and run results — to plain JSON-ready
dictionaries, with strict validation on the way back in.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.allocation import Allocation
from repro.core.latency import (
    LatencyFunction,
    LinearLatency,
    PiecewiseLinearLatency,
    PowerLawLatency,
    TabulatedLatency,
)
from repro.crowd.error_models import (
    DistanceSensitiveError,
    ErrorModel,
    PerfectWorkers,
    UniformError,
)
from repro.crowd.workers import WorkerPoolConfig
from repro.engine.results import MaxRunResult, RoundRecord
from repro.engine.session import MaxSession
from repro.errors import InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph
from repro.selection.registry import selector_by_name

_FORMAT_VERSION = 1


def _require(payload: Dict[str, Any], key: str, kind: str) -> Any:
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise InvalidParameterError(
            f"malformed {kind} payload: missing key {key!r}"
        ) from None


# ----------------------------------------------------------------------
# Allocation
# ----------------------------------------------------------------------
def allocation_to_dict(allocation: Allocation) -> Dict[str, Any]:
    """Serialize an :class:`Allocation`."""
    return {
        "version": _FORMAT_VERSION,
        "kind": "allocation",
        "round_budgets": list(allocation.round_budgets),
        "element_sequence": (
            list(allocation.element_sequence)
            if allocation.element_sequence is not None
            else None
        ),
        "allocator_name": allocation.allocator_name,
    }


def allocation_from_dict(payload: Dict[str, Any]) -> Allocation:
    """Rebuild an :class:`Allocation` (validation re-runs on construction)."""
    sequence = _require(payload, "element_sequence", "allocation")
    return Allocation(
        round_budgets=tuple(_require(payload, "round_budgets", "allocation")),
        element_sequence=tuple(sequence) if sequence is not None else None,
        allocator_name=payload.get("allocator_name", ""),
    )


# ----------------------------------------------------------------------
# AnswerGraph
# ----------------------------------------------------------------------
def answer_graph_to_dict(graph: AnswerGraph) -> Dict[str, Any]:
    """Serialize an :class:`AnswerGraph` (elements + answer edges)."""
    return {
        "version": _FORMAT_VERSION,
        "kind": "answer_graph",
        "elements": sorted(graph.elements),
        "answers": list(map(tuple, graph.sorted_answers().tolist())),
    }


def answer_graph_from_dict(payload: Dict[str, Any]) -> AnswerGraph:
    """Rebuild an :class:`AnswerGraph`; re-validates every answer."""
    graph = AnswerGraph(_require(payload, "elements", "answer_graph"))
    graph.record_pairs(_require(payload, "answers", "answer_graph"))
    return graph


# ----------------------------------------------------------------------
# MaxRunResult
# ----------------------------------------------------------------------
def run_result_to_dict(result: MaxRunResult) -> Dict[str, Any]:
    """Serialize a finished run, including the per-round trace."""
    return {
        "version": _FORMAT_VERSION,
        "kind": "max_run_result",
        "winner": result.winner,
        "true_max": result.true_max,
        "singleton_termination": result.singleton_termination,
        "total_latency": result.total_latency,
        "total_questions": result.total_questions,
        "records": [
            {
                "round_index": record.round_index,
                "budget": record.budget,
                "candidates_before": record.candidates_before,
                "questions_posted": record.questions_posted,
                "latency": record.latency,
                "candidates_after": record.candidates_after,
            }
            for record in result.records
        ],
        "allocation": (
            allocation_to_dict(result.allocation)
            if result.allocation is not None
            else None
        ),
    }


def run_result_from_dict(payload: Dict[str, Any]) -> MaxRunResult:
    """Rebuild a :class:`MaxRunResult` from its serialized form."""
    records = tuple(
        RoundRecord(
            round_index=_require(entry, "round_index", "round_record"),
            budget=_require(entry, "budget", "round_record"),
            candidates_before=_require(
                entry, "candidates_before", "round_record"
            ),
            questions_posted=_require(
                entry, "questions_posted", "round_record"
            ),
            latency=_require(entry, "latency", "round_record"),
            candidates_after=_require(
                entry, "candidates_after", "round_record"
            ),
        )
        for entry in _require(payload, "records", "max_run_result")
    )
    allocation_payload = payload.get("allocation")
    return MaxRunResult(
        winner=_require(payload, "winner", "max_run_result"),
        true_max=_require(payload, "true_max", "max_run_result"),
        singleton_termination=_require(
            payload, "singleton_termination", "max_run_result"
        ),
        total_latency=_require(payload, "total_latency", "max_run_result"),
        total_questions=_require(payload, "total_questions", "max_run_result"),
        records=records,
        allocation=(
            allocation_from_dict(allocation_payload)
            if allocation_payload is not None
            else None
        ),
    )


# ----------------------------------------------------------------------
# MaxSession checkpoints
# ----------------------------------------------------------------------
def session_to_dict(session: MaxSession) -> Dict[str, Any]:
    """Checkpoint a :class:`MaxSession`, between rounds or mid-round.

    Captures everything a resumed session needs to finish with the same
    winner an uninterrupted run would declare: the allocation, selector
    name, accumulated evidence (a half-answered round's answers
    included), round/question counters, the handed-out round's questions
    and the exact RNG state (so upcoming question selections replay
    bit-identically).  Mid-round the saved RNG state is the
    *post-selection* state, and the resumed session re-asks exactly the
    questions the evidence has not answered.
    """
    pending = session.pending
    return {
        "version": _FORMAT_VERSION,
        "kind": "max_session",
        "allocation": allocation_to_dict(session.allocation),
        "selector": session.selector.name,
        "n_elements": len(session.evidence.elements),
        "round_index": session.round_index,
        "questions_posted": session.questions_posted,
        "rounds_executed": session.rounds_executed,
        "evidence": answer_graph_to_dict(session.evidence),
        "rng_state": session.rng.bit_generator.state,
        "pending": (
            [[int(a), int(b)] for a, b in pending]
            if pending is not None
            else None
        ),
    }


def generator_from_state(state: Any) -> np.random.Generator:
    """A generator whose bit generator is at *state*, a
    ``bit_generator.state`` dict.

    Raises:
        InvalidParameterError: if *state* is not such a dict.
    """
    if not isinstance(state, dict) or "bit_generator" not in state:
        raise InvalidParameterError(
            "an RNG state must be a bit-generator state dict"
        )
    bit_generator_cls = getattr(np.random, str(state["bit_generator"]), None)
    if bit_generator_cls is None:
        raise InvalidParameterError(
            f"unknown bit generator {state['bit_generator']!r} in an RNG state"
        )
    bit_generator = bit_generator_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def session_from_dict(payload: Dict[str, Any]) -> MaxSession:
    """Resume a :class:`MaxSession` from a checkpoint payload."""
    return MaxSession.restore(
        allocation_from_dict(_require(payload, "allocation", "max_session")),
        selector_by_name(_require(payload, "selector", "max_session")),
        _require(payload, "n_elements", "max_session"),
        generator_from_state(_require(payload, "rng_state", "max_session")),
        evidence=answer_graph_from_dict(
            _require(payload, "evidence", "max_session")
        ),
        round_index=_require(payload, "round_index", "max_session"),
        questions_posted=_require(payload, "questions_posted", "max_session"),
        rounds_executed=_require(payload, "rounds_executed", "max_session"),
        pending=payload.get("pending"),
    )


# ----------------------------------------------------------------------
# Latency functions
# ----------------------------------------------------------------------
def latency_to_dict(latency: LatencyFunction) -> Dict[str, Any]:
    """Serialize one of the built-in latency models.

    Raises:
        InvalidParameterError: for latency classes this module does not
            know how to rebuild (e.g. ad-hoc subclasses in tests).
    """
    if isinstance(latency, LinearLatency):
        return {
            "version": _FORMAT_VERSION,
            "kind": "latency",
            "model": "linear",
            "delta": latency.delta,
            "alpha": latency.alpha,
        }
    if isinstance(latency, PowerLawLatency):
        return {
            "version": _FORMAT_VERSION,
            "kind": "latency",
            "model": "power_law",
            "delta": latency.delta,
            "alpha": latency.alpha,
            "p": latency.p,
        }
    if isinstance(latency, TabulatedLatency):
        # Serialize the *cleaned* knots; the isotonic clean-up is
        # idempotent, so the round trip reproduces the same function
        # (and the same repr, which keys the service plan cache).
        inner = latency._inner
        return {
            "version": _FORMAT_VERSION,
            "kind": "latency",
            "model": "tabulated",
            "knots": [[q, t] for q, t in zip(inner._qs, inner._ts)],
        }
    if isinstance(latency, PiecewiseLinearLatency):
        return {
            "version": _FORMAT_VERSION,
            "kind": "latency",
            "model": "piecewise",
            "knots": [[q, t] for q, t in zip(latency._qs, latency._ts)],
        }
    raise InvalidParameterError(
        f"cannot serialize latency model {type(latency).__name__}; "
        f"supported: LinearLatency, PowerLawLatency, "
        f"PiecewiseLinearLatency, TabulatedLatency"
    )


def latency_from_dict(payload: Dict[str, Any]) -> LatencyFunction:
    """Rebuild a latency model serialized by :func:`latency_to_dict`."""
    model = _require(payload, "model", "latency")
    if model == "linear":
        return LinearLatency(
            delta=_require(payload, "delta", "latency"),
            alpha=_require(payload, "alpha", "latency"),
        )
    if model == "power_law":
        return PowerLawLatency(
            delta=_require(payload, "delta", "latency"),
            alpha=_require(payload, "alpha", "latency"),
            p=_require(payload, "p", "latency"),
        )
    if model == "tabulated":
        return TabulatedLatency(
            [(q, t) for q, t in _require(payload, "knots", "latency")]
        )
    if model == "piecewise":
        return PiecewiseLinearLatency(
            [(q, t) for q, t in _require(payload, "knots", "latency")]
        )
    raise InvalidParameterError(f"unknown latency model {model!r}")


# ----------------------------------------------------------------------
# Worker error models / worker pool configuration
# ----------------------------------------------------------------------
def error_model_to_dict(model: Optional[ErrorModel]) -> Optional[Dict[str, Any]]:
    """Serialize a worker error model (``None`` passes through)."""
    if model is None:
        return None
    if isinstance(model, PerfectWorkers):
        return {"kind": "error_model", "model": "perfect"}
    if isinstance(model, UniformError):
        return {"kind": "error_model", "model": "uniform", "rate": model.rate}
    if isinstance(model, DistanceSensitiveError):
        return {
            "kind": "error_model",
            "model": "distance",
            "base": model.base,
            "scale": model.scale,
        }
    raise InvalidParameterError(
        f"cannot serialize error model {type(model).__name__}"
    )


def error_model_from_dict(
    payload: Optional[Dict[str, Any]],
) -> Optional[ErrorModel]:
    """Rebuild the counterpart of :func:`error_model_to_dict`."""
    if payload is None:
        return None
    model = _require(payload, "model", "error_model")
    if model == "perfect":
        return PerfectWorkers()
    if model == "uniform":
        return UniformError(rate=_require(payload, "rate", "error_model"))
    if model == "distance":
        return DistanceSensitiveError(
            base=_require(payload, "base", "error_model"),
            scale=_require(payload, "scale", "error_model"),
        )
    raise InvalidParameterError(f"unknown error model {model!r}")


def worker_config_to_dict(
    config: Optional[WorkerPoolConfig],
) -> Optional[Dict[str, Any]]:
    """Serialize a worker pool configuration (``None`` passes through)."""
    if config is None:
        return None
    return dataclasses.asdict(config)


def worker_config_from_dict(
    payload: Optional[Dict[str, Any]],
) -> Optional[WorkerPoolConfig]:
    """Rebuild the counterpart of :func:`worker_config_to_dict`."""
    if payload is None:
        return None
    return WorkerPoolConfig(**payload)


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------
def save_text(text: str, path: Union[str, Path]) -> None:
    """Atomically write *text* to *path*.

    Written to a temp file in the target directory, fsync'd and renamed
    into place — a crash mid-write can leave a stale file behind, never a
    torn one, and a concurrent reader sees either the old contents or the
    new.  The trace exporter and the OpenMetrics textfile writer both use
    this; the latter rewrites its file every scheduler tick, so rename
    atomicity is what keeps scrapes consistent.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def save_json(payload: Dict[str, Any], path: Union[str, Path]) -> None:
    """Atomically write a serialized payload to *path* as JSON.

    The payload is serialized first (so an unserializable payload leaves
    an existing file untouched), then handed to :func:`save_text`.
    """
    save_text(json.dumps(payload, indent=2), path)


def load_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a payload written by :func:`save_json`.

    Raises:
        InvalidParameterError: if the file is not valid JSON or does not
            look like a payload produced by this module.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InvalidParameterError(f"no such checkpoint file: {path}") from None
    except json.JSONDecodeError as error:
        raise InvalidParameterError(f"invalid JSON in {path}: {error}") from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise InvalidParameterError(
            f"{path} does not contain a repro persistence payload"
        )
    return payload
