"""Tests for the streaming trace file: JSONL lines, flushing, crash prefix."""

import dataclasses
import json

import pytest

from repro.chaos import ChaosScenario, build_scheduler
from repro.errors import InvalidParameterError
from repro.obs.events import RoundPosted, SpanCompleted
from repro.obs.export import read_jsonl
from repro.obs.tracer import FLUSH_EVERY, RecordingTracer, use_tracer


def _event(index: int) -> RoundPosted:
    return RoundPosted(
        round_index=index, budget=10, questions_posted=10, candidates_before=5
    )


class TestStreamingJsonlSink:
    def test_writes_one_line_per_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = RecordingTracer(path=path)
        for i in range(3):
            tracer.emit(_event(i))
        tracer.close()
        records = read_jsonl(path)
        assert len(records) == 3
        assert [r.event.round_index for r in records] == [0, 1, 2]

    def test_flush_interval_controls_durability(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = RecordingTracer(path=path)
        for i in range(FLUSH_EVERY + 6):
            tracer.emit(_event(i))
        # The last flush was at FLUSH_EVERY: that is the readable prefix.
        assert tracer.emitted == FLUSH_EVERY + 6
        assert len(read_jsonl(path)) == FLUSH_EVERY
        tracer.close()
        assert len(read_jsonl(path)) == FLUSH_EVERY + 6

    def test_no_part_of_an_unfinished_batch_reaches_the_file(self, tmp_path):
        # Lines far larger than the file object's own buffer: writing them
        # one by one would push a torn prefix to disk before the flush.
        path = tmp_path / "trace.jsonl"
        tracer = RecordingTracer(path=path)
        for i in range(FLUSH_EVERY - 1):
            tracer.emit(SpanCompleted(label=f"{i}-" + "x" * 1000, seconds=0.0))
        assert path.read_text(encoding="utf-8") == ""
        tracer.close()
        assert len(read_jsonl(path)) == FLUSH_EVERY - 1

    def test_closed_sink_rejects_writes(self, tmp_path):
        tracer = RecordingTracer(path=tmp_path / "t.jsonl")
        tracer.close()
        with pytest.raises(InvalidParameterError):
            tracer.emit(_event(0))
        assert tracer.emitted == 0

    def test_close_is_idempotent(self, tmp_path):
        tracer = RecordingTracer(path=tmp_path / "t.jsonl")
        tracer.close()
        tracer.close()


class TestTracerSinkIntegration:
    def test_unbuffered_tracer_keeps_no_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = RecordingTracer(path=path)
        for i in range(7):
            tracer.emit(_event(i))
        tracer.close()
        assert tracer.records == ()
        assert tracer.emitted == 7
        assert [r.seq for r in read_jsonl(path)] == list(range(7))

    def test_clear_resets_seq(self):
        tracer = RecordingTracer()
        tracer.emit(_event(0))
        tracer.clear()
        tracer.emit(_event(1))
        assert tracer.records[0].seq == 0

    def test_close_flushes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = RecordingTracer(path=path)
        tracer.emit(_event(0))
        assert read_jsonl(path) == []
        tracer.close()
        assert len(read_jsonl(path)) == 1


def _without_wall_clock(records):
    """Records with ``wall_time`` and any event ``seconds`` zeroed."""
    zeroed = []
    for record in records:
        event = record.event
        if hasattr(event, "seconds"):
            event = dataclasses.replace(event, seconds=0.0)
        zeroed.append(dataclasses.replace(record, wall_time=0.0, event=event))
    return zeroed


def _run_steps(tracer, steps):
    scheduler = build_scheduler(ChaosScenario(workload="smoke", seed=7))
    with use_tracer(tracer):
        for _ in range(steps):
            assert scheduler.step(), "the run must still be going"
    return scheduler


class TestCrashLeavesReadablePrefix:
    def test_killed_run_prefix_parses_and_matches(self, tmp_path):
        """Abandon a scheduler mid-run; the file's on-disk prefix must
        parse cleanly and equal the same steps traced in memory."""
        steps = 5
        trace_path = tmp_path / "trace.jsonl"
        tracer = RecordingTracer(path=trace_path)
        victim = _run_steps(tracer, steps)
        # Kill: the scheduler and tracer are abandoned without close(), so
        # only the whole batches already written are on disk.
        del victim
        reference = RecordingTracer()
        _run_steps(reference, steps)
        assert tracer.emitted == reference.emitted > FLUSH_EVERY
        assert tracer.emitted % FLUSH_EVERY, "the kill must strand a tail"
        on_disk = read_jsonl(trace_path)
        assert len(on_disk) == tracer.emitted // FLUSH_EVERY * FLUSH_EVERY
        assert _without_wall_clock(on_disk) == _without_wall_clock(
            reference.records[: len(on_disk)]
        )
        # Every line on disk is whole — no torn JSON at the tail.
        text = trace_path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        for line in text.splitlines():
            json.loads(line)
        tracer.close()
