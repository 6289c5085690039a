"""JSONL round-trip (stream -> parse -> report) and event serialization."""

from __future__ import annotations

import io

import pytest

from repro.obs.events import (
    AnswersReceived,
    CandidateSetShrunk,
    DPTableBuilt,
    RWLRetry,
    RoundPosted,
    RunFinished,
    RunStarted,
    SpanCompleted,
    TraceRecord,
    WorkerServiced,
    event_from_dict,
)
from repro.obs.export import encode_record, read_jsonl
from repro.obs.report import render_trace_report, report_file
from repro.obs.tracer import RecordingTracer

ALL_EVENTS = (
    RunStarted(n_elements=30, budget=70, rounds_planned=2, engine="MaxEngine"),
    RoundPosted(round_index=0, budget=42, questions_posted=42, candidates_before=30),
    AnswersReceived(round_index=0, n_answers=42, latency=241.5),
    CandidateSetShrunk(round_index=0, candidates_before=30, candidates_after=8),
    RWLRetry(distinct_questions=28, questions_posted=84, repetition=3, majority_flips=2),
    WorkerServiced(worker_id=5, n_answers=17, busy_time=120.5),
    DPTableBuilt(solver="frontier", n_elements=30, budget=150, seconds=0.002, states=107),
    SpanCompleted(label="tdp.solve", seconds=0.002),
    RunFinished(winner=2, rounds_run=2, total_questions=70, total_latency=482.2, singleton=True),
)


def _trace(path=None) -> RecordingTracer:
    """Every event kind through one tracer; *path* streams it to a file."""
    tracer = RecordingTracer(clock=lambda: 0.0, path=path)
    for event in ALL_EVENTS:
        tracer.emit(event)
    tracer.close()
    return tracer


class TestEventSerialization:
    @pytest.mark.parametrize("event", ALL_EVENTS, ids=lambda e: e.kind)
    def test_dict_round_trip_every_kind(self, event):
        assert event_from_dict(event.kind, event.to_dict()) == event

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            event_from_dict("NoSuchEvent", {})

    def test_record_round_trip_preserves_timestamps(self):
        record = TraceRecord(
            seq=3, wall_time=0.5, sim_time=240.0, event=ALL_EVENTS[1]
        )
        assert TraceRecord.from_dict(record.to_dict()) == record

    def test_record_round_trip_with_null_sim_time(self):
        record = TraceRecord(seq=0, wall_time=0.1, sim_time=None, event=ALL_EVENTS[0])
        assert TraceRecord.from_dict(record.to_dict()) == record


class TestJsonl:
    def test_file_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        streamed = _trace(path)
        assert streamed.emitted == len(ALL_EVENTS)
        assert streamed.records == ()
        assert read_jsonl(path) == list(_trace().records)

    def test_stream_round_trip(self):
        records = _trace().records
        buffer = io.StringIO("".join(encode_record(r) for r in records))
        assert read_jsonl(buffer) == list(records)

    def test_accepts_plain_record_iterables(self):
        # Records built by hand, not by a tracer, encode the same way.
        records = [
            TraceRecord(seq=i, wall_time=0.25 * i, sim_time=None, event=event)
            for i, event in enumerate(ALL_EVENTS)
        ]
        lines = [encode_record(record) for record in records]
        assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
        assert read_jsonl(io.StringIO("".join(lines))) == records

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _trace(path)
        content = path.read_text()
        path.write_text("\n" + content + "\n\n")
        assert len(read_jsonl(path)) == len(ALL_EVENTS)

    def test_one_json_object_per_line(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        _trace(path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(ALL_EVENTS)
        for line in lines:
            assert isinstance(json.loads(line), dict)


class TestReport:
    def test_full_pipeline_export_parse_report(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _trace(path)
        report = report_file(path)
        # Run header and result line.
        assert "c0=30" in report
        assert "MAX=2 (singleton)" in report
        # The per-round breakdown row: round 0, 30 -> 8 candidates.
        assert "per-round breakdown:" in report
        assert "30" in report and "8" in report
        assert "241.5" in report
        # Section per instrumented layer.
        assert "allocator DP builds:" in report
        assert "frontier" in report
        assert "RWL repairs:" in report
        assert "56 redundant question(s)" in report
        assert "profiling spans:" in report
        assert "tdp.solve" in report

    def test_report_without_rounds(self):
        tracer = RecordingTracer()
        tracer.emit(SpanCompleted(label="only.spans", seconds=0.5))
        report = render_trace_report(tracer.records)
        assert "(no rounds recorded)" in report
        assert "only.spans" in report

    def test_cumulative_latency_column(self):
        tracer = RecordingTracer()
        for index, latency in enumerate((100.0, 50.0)):
            tracer.emit(
                RoundPosted(
                    round_index=index,
                    budget=10,
                    questions_posted=10,
                    candidates_before=20 - index,
                )
            )
            tracer.emit(
                AnswersReceived(round_index=index, n_answers=10, latency=latency)
            )
        report = render_trace_report(tracer.records)
        assert "150.0" in report  # cumulative after round 1
