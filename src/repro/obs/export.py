"""The trace's JSONL format: the line encoder and the reader.

One JSON object per line, schema::

    {"seq": 0, "wall_time": 0.0012, "sim_time": 0.0,
     "kind": "RoundPosted", "data": {"round_index": 0, ...}}

A :class:`~repro.obs.tracer.RecordingTracer` given a ``path`` writes each
record with :func:`encode_record` as it is emitted, so the format is
append-friendly (a crashed run leaves a readable prefix) and greppable
(``grep RWLRetry trace.jsonl``).  :func:`read_jsonl` reconstructs the
typed events, so ``write -> read`` is lossless; the round-trip is pinned
by the test suite.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, List, Union

from repro.obs.events import TraceRecord

PathOrFile = Union[str, Path, IO[str]]


def encode_record(record: TraceRecord) -> str:
    """One trace record as one JSONL line, newline included."""
    return json.dumps(record.to_dict()) + "\n"


def read_jsonl(source: PathOrFile) -> List[TraceRecord]:
    """Parse a JSONL trace back into typed :class:`TraceRecord` objects."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    records = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        records.append(TraceRecord.from_dict(json.loads(line)))
    return records
