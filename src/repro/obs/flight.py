"""Incident flight recorder: a bounded ring plus debug bundles.

A :class:`FlightRecorder` rides along with the scheduler, keeping the
last *capacity* entries — tick samples, alert transitions, whatever the
host feeds :meth:`FlightRecorder.record` — in a ring, for free until
something goes wrong.  When an alert fires (or an operator runs
``tdp-repro diagnose``), :func:`write_bundle` snapshots the ring plus
the surrounding context to a crash-readable directory:

========================= =========================================
file                      contents
========================= =========================================
``ring.jsonl``            the ring, oldest entry first, one per line
``state.json``            breaker/brownout/hedge/router/engine state,
                          active alerts, health, journal tail pointer
``metrics.prom``          OpenMetrics snapshot of the registry
``spans.txt``             open span trees, when a tracer was attached
``manifest.json``         index of the above — **written last**, so a
                          bundle with a manifest is a complete bundle
========================= =========================================

Every file goes through the atomic writers in :mod:`repro.persistence`
and nothing in a bundle reads the wall clock, so re-writing a bundle on
deterministic replay is idempotent: same ticks in, same bytes out.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Union

from repro.errors import InvalidParameterError
from repro.obs.openmetrics import render_openmetrics

__all__ = [
    "BUNDLE_MANIFEST",
    "FlightRecorder",
    "write_bundle",
    "validate_bundle",
]

#: The bundle index file; its presence marks a complete bundle.
BUNDLE_MANIFEST = "manifest.json"


class FlightRecorder:
    """A bounded ring of recent observations.

    Entries are plain JSON-serializable dicts tagged with a ``kind``;
    the ring drops the oldest entry once *capacity* is reached.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise InvalidParameterError(
                f"flight recorder capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._ring)

    def record(self, kind: str, **payload: Any) -> None:
        """Append one entry (oldest evicted once the ring is full)."""
        self._ring.append({"kind": kind, **payload})

    def entries(self) -> List[Dict[str, Any]]:
        """The ring contents, oldest first."""
        return [dict(entry) for entry in self._ring]


def write_bundle(
    directory: Union[str, Path],
    recorder: FlightRecorder,
    *,
    state: Optional[Dict[str, Any]] = None,
    metrics_snapshot: Optional[Dict[str, Dict[str, Any]]] = None,
    spans: Optional[str] = None,
    reason: str = "diagnose",
) -> Path:
    """Snapshot a debug bundle into *directory* (created if missing).

    Writes the ring, the host-provided *state* dict, an OpenMetrics
    rendering of *metrics_snapshot* and optional span trees, then the
    manifest last — a reader finding ``manifest.json`` can trust every
    file it lists.  Returns the bundle directory.
    """
    # Deferred: repro.persistence pulls in the engine package, which
    # imports repro.obs back — a cycle at module-import time only.
    from repro.persistence import save_json, save_text

    bundle = Path(directory)
    bundle.mkdir(parents=True, exist_ok=True)
    entries = recorder.entries()
    ring_lines = "".join(
        json.dumps(entry, separators=(",", ":"), sort_keys=True) + "\n"
        for entry in entries
    )
    files = {"ring.jsonl": len(entries)}
    save_text(ring_lines, bundle / "ring.jsonl")
    save_json(state if state is not None else {}, bundle / "state.json")
    files["state.json"] = 1
    if metrics_snapshot is not None:
        save_text(render_openmetrics(metrics_snapshot),
                  bundle / "metrics.prom")
        files["metrics.prom"] = 1
    if spans is not None:
        save_text(spans, bundle / "spans.txt")
        files["spans.txt"] = 1
    manifest = {
        "schema": 1,
        "reason": reason,
        "ring_entries": len(entries),
        "files": sorted(files),
    }
    save_json(manifest, bundle / BUNDLE_MANIFEST)
    return bundle


def validate_bundle(directory: Union[str, Path]) -> Dict[str, Any]:
    """Check a bundle is complete; returns its manifest.

    Raises:
        InvalidParameterError: when the manifest is missing or a file it
            lists is absent — i.e. the bundle write did not finish.
    """
    bundle = Path(directory)
    manifest_path = bundle / BUNDLE_MANIFEST
    if not manifest_path.is_file():
        raise InvalidParameterError(
            f"no {BUNDLE_MANIFEST} in {bundle} — incomplete bundle"
        )
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for name in manifest.get("files", []):
        if not (bundle / name).is_file():
            raise InvalidParameterError(
                f"bundle {bundle} is missing {name} listed in its manifest"
            )
    return manifest
