"""Tracer semantics: NullTracer no-ops, recording order, spans, scoping."""

from __future__ import annotations

from repro.obs.events import RoundPosted, SpanCompleted
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RecordingTracer,
    current_tracer,
    timed,
    use_tracer,
)


def _round_event(index: int = 0) -> RoundPosted:
    return RoundPosted(
        round_index=index,
        budget=10,
        questions_posted=10,
        candidates_before=20,
    )


class FakeClock:
    """A deterministic, manually advanced clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestNullTracer:
    def test_disabled_flag(self):
        assert NullTracer().enabled is False
        assert NULL_TRACER.enabled is False

    def test_emit_is_a_noop(self):
        tracer = NullTracer()
        assert tracer.emit(_round_event()) is None
        tracer.advance_sim(5.0)  # also a no-op, must not raise

    def test_is_the_ambient_default(self):
        assert current_tracer() is NULL_TRACER


class TestRecordingTracer:
    def test_sequence_numbers_are_dense_and_ordered(self):
        tracer = RecordingTracer()
        for index in range(5):
            tracer.emit(_round_event(index))
        records = tracer.records
        assert [r.seq for r in records] == [0, 1, 2, 3, 4]
        assert [r.event.round_index for r in records] == [0, 1, 2, 3, 4]

    def test_wall_times_are_monotonic_from_zero(self):
        clock = FakeClock()
        tracer = RecordingTracer(clock=clock)
        clock.now = 1.5
        tracer.emit(_round_event(0))
        clock.now = 2.25
        tracer.emit(_round_event(1))
        walls = [r.wall_time for r in tracer.records]
        assert walls == [1.5, 2.25]

    def test_sim_clock_tracking_and_override(self):
        tracer = RecordingTracer()
        tracer.emit(_round_event(0))
        tracer.advance_sim(240.0)
        tracer.emit(_round_event(1))
        tracer.emit(_round_event(2), sim_time=99.0)
        sims = [r.sim_time for r in tracer.records]
        assert sims == [0.0, 240.0, 99.0]
        assert tracer.sim_time == 240.0

    def test_events_filter_by_kind(self):
        tracer = RecordingTracer()
        tracer.emit(_round_event())
        tracer.emit(SpanCompleted(label="x", seconds=0.1))
        assert len(tracer.events("RoundPosted")) == 1
        assert len(tracer.events("SpanCompleted")) == 1
        assert len(tracer.events()) == 2

    def test_clear(self):
        tracer = RecordingTracer()
        tracer.emit(_round_event())
        tracer.advance_sim(10.0)
        tracer.clear()
        assert tracer.records == ()
        assert tracer.sim_time == 0.0


class TestUseTracer:
    def test_scoped_install_and_restore(self):
        tracer = RecordingTracer()
        assert current_tracer() is NULL_TRACER
        with use_tracer(tracer) as installed:
            assert installed is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_restores_on_exception(self):
        tracer = RecordingTracer()
        try:
            with use_tracer(tracer):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_tracer() is NULL_TRACER


class TestTimed:
    def test_context_manager_measures_and_records(self):
        registry = MetricsRegistry()
        clock = FakeClock()
        with timed("unit", registry=registry, clock=clock) as span:
            clock.now = 0.75
        assert span.seconds == 0.75
        snap = registry.snapshot()["time.unit"]
        assert snap["count"] == 1
        assert snap["samples"] == [0.75]

    def test_emits_span_event_on_active_tracer(self):
        registry = MetricsRegistry()
        tracer = RecordingTracer()
        with use_tracer(tracer), timed("unit", registry=registry):
            pass
        events = tracer.events("SpanCompleted")
        assert len(events) == 1
        assert events[0].label == "unit"

    def test_null_tracer_receives_nothing(self):
        registry = MetricsRegistry()
        with timed("unit", registry=registry):
            pass  # ambient tracer is NULL_TRACER; must not raise

    def test_decorator_measures_every_call(self):
        registry = MetricsRegistry()

        @timed("decorated", registry=registry)
        def add(a, b):
            return a + b

        assert add(1, 2) == 3
        assert add(3, 4) == 7
        assert registry.snapshot()["time.decorated"]["count"] == 2

    def test_records_even_when_body_raises(self):
        registry = MetricsRegistry()
        try:
            with timed("failing", registry=registry):
                raise ValueError("boom")
        except ValueError:
            pass
        assert registry.snapshot()["time.failing"]["count"] == 1
