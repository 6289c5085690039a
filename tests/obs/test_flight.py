"""Tests for the incident flight recorder (``repro.obs.flight``)."""

import json

import pytest

from repro.errors import InvalidParameterError
from repro.obs.flight import (
    BUNDLE_MANIFEST,
    FlightRecorder,
    validate_bundle,
    write_bundle,
)
from repro.obs.metrics import MetricsRegistry


class TestRing:
    def test_rejects_zero_capacity(self):
        with pytest.raises(InvalidParameterError):
            FlightRecorder(0)

    def test_evicts_oldest_beyond_capacity(self):
        recorder = FlightRecorder(3)
        for tick in range(5):
            recorder.record("tick", tick=tick)
        assert len(recorder) == 3
        assert [e["tick"] for e in recorder.entries()] == [2, 3, 4]


class TestBundle:
    def _recorder(self):
        recorder = FlightRecorder(8)
        recorder.record("tick", tick=1, health="ok")
        recorder.record("alert", rule="burn", action="fired", tick=2)
        return recorder

    def test_writes_ring_state_metrics_and_manifest(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("alerts.fired").inc(2)
        bundle = write_bundle(
            tmp_path / "incident",
            self._recorder(),
            state={"tick": 2, "health": "critical"},
            metrics_snapshot=registry.snapshot(),
            spans="q1 span tree",
            reason="alert:burn",
        )
        manifest = validate_bundle(bundle)
        assert manifest["reason"] == "alert:burn"
        assert manifest["ring_entries"] == 2
        assert sorted(manifest["files"]) == [
            "metrics.prom", "ring.jsonl", "spans.txt", "state.json",
        ]
        lines = (bundle / "ring.jsonl").read_text().splitlines()
        assert [json.loads(l)["kind"] for l in lines] == ["tick", "alert"]
        assert json.loads((bundle / "state.json").read_text()) == {
            "tick": 2, "health": "critical",
        }
        # OpenMetrics names swap dots for underscores.
        assert "alerts_fired_total 2" in (bundle / "metrics.prom").read_text()

    def test_rewrite_is_idempotent(self, tmp_path):
        recorder = self._recorder()
        bundle = tmp_path / "incident"
        write_bundle(bundle, recorder, state={"tick": 2})
        first = {
            name: (bundle / name).read_bytes()
            for name in ("ring.jsonl", "state.json", BUNDLE_MANIFEST)
        }
        write_bundle(bundle, recorder, state={"tick": 2})
        for name, payload in first.items():
            assert (bundle / name).read_bytes() == payload

    def test_missing_manifest_fails_validation(self, tmp_path):
        bundle = write_bundle(tmp_path / "incident", self._recorder())
        (bundle / BUNDLE_MANIFEST).unlink()
        with pytest.raises(InvalidParameterError):
            validate_bundle(bundle)

    def test_missing_listed_file_fails_validation(self, tmp_path):
        bundle = write_bundle(tmp_path / "incident", self._recorder())
        (bundle / "ring.jsonl").unlink()
        with pytest.raises(InvalidParameterError):
            validate_bundle(bundle)
