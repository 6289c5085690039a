"""Tracers: structured-event collection with near-zero default cost.

The default tracer everywhere is the shared :data:`NULL_TRACER`, whose
``enabled`` flag is ``False`` — instrumented hot paths guard event
*construction* behind that flag, so a benchmark run pays one attribute
read per potential event and allocates nothing.

A :class:`RecordingTracer` stamps each event as a
:class:`~repro.obs.events.TraceRecord` with two clocks: monotonic wall
time (seconds since the tracer was created) and the simulated platform
clock, which the emitting layer advances via
:meth:`RecordingTracer.advance_sim` as rounds complete.  It keeps the
records in memory, or, given a ``path``, streams each one to that file
as a JSONL line (:mod:`repro.obs.export` owns the line format).

Tracers reach the instrumented layers one way: :func:`use_tracer`
installs a tracer in a ``contextvars`` scope and every instrumented
layer reads it with :func:`current_tracer` when it emits.

:func:`timed` is the profiling primitive: a context manager *and*
decorator that measures a wall-clock span, records it into the metrics
registry histogram ``time.<label>`` and, when a tracer is active, emits a
:class:`~repro.obs.events.SpanCompleted` event.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Tuple, Union

from repro.errors import InvalidParameterError
from repro.obs.events import SpanCompleted, TraceEvent, TraceRecord
from repro.obs.export import encode_record
from repro.obs.metrics import MetricsRegistry, get_registry


class Tracer:
    """Interface of all tracers.

    ``enabled`` is a plain attribute (not a property) so the hot-path
    guard ``if tracer.enabled:`` costs a single attribute read.
    """

    enabled: bool = True

    def emit(self, event: TraceEvent, sim_time: Optional[float] = None) -> None:
        raise NotImplementedError

    def advance_sim(self, seconds: float) -> None:
        """Advance the simulated clock (no-op unless recording)."""


class NullTracer(Tracer):
    """The do-nothing default; safe to share process-wide."""

    enabled = False

    def emit(self, event: TraceEvent, sim_time: Optional[float] = None) -> None:
        pass


#: Shared no-op tracer instance (the package-wide default).
NULL_TRACER = NullTracer()


#: A streaming :class:`RecordingTracer` writes and flushes its file in
#: batches of this many lines.
FLUSH_EVERY = 64


class RecordingTracer(Tracer):
    """Timestamps events and keeps them in memory or streams them to a file.

    Args:
        clock: monotonic time source (injectable for deterministic tests).
        path: ``None`` keeps every record in memory (:attr:`records`).
            Given a path, the file is truncated now and each record
            becomes one JSONL line when it is emitted.  Lines reach the
            file in whole batches of :data:`FLUSH_EVERY`, flushed at once,
            and the rest at :meth:`close`; nothing else is kept in memory
            (``records == ()``).  So a killed run leaves a prefix of whole
            lines that :func:`~repro.obs.export.read_jsonl` parses.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        path: Optional[Union[str, Path]] = None,
    ) -> None:
        self._file = None if path is None else open(path, "w", encoding="utf-8")
        self._clock = clock
        self._origin = clock()
        self._lock = threading.Lock()
        self._records: List[TraceRecord] = []
        self._lines: List[str] = []
        self._emitted = 0
        self._sim_time = 0.0

    @property
    def emitted(self) -> int:
        """Events emitted so far (kept in memory or written to the file)."""
        return self._emitted

    @property
    def sim_time(self) -> float:
        """Current simulated-clock reading (seconds)."""
        return self._sim_time

    def advance_sim(self, seconds: float) -> None:
        with self._lock:
            self._sim_time += seconds

    def emit(self, event: TraceEvent, sim_time: Optional[float] = None) -> None:
        """Record *event* now; *sim_time* overrides the tracked sim clock."""
        wall = self._clock() - self._origin
        with self._lock:
            record = TraceRecord(
                seq=self._emitted,
                wall_time=wall,
                sim_time=self._sim_time if sim_time is None else sim_time,
                event=event,
            )
            if self._file is None:
                self._records.append(record)
            elif self._file.closed:
                raise InvalidParameterError(
                    f"trace {self._file.name} is closed; "
                    "no further records accepted"
                )
            else:
                self._lines.append(encode_record(record))
                if len(self._lines) >= FLUSH_EVERY:
                    self._write_lines()
            self._emitted += 1

    def _write_lines(self) -> None:
        assert self._file is not None
        self._file.write("".join(self._lines))
        self._file.flush()
        self._lines.clear()

    @property
    def records(self) -> Tuple[TraceRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def events(self, kind: Optional[str] = None) -> Tuple[TraceEvent, ...]:
        """The buffered events, optionally filtered to one kind."""
        return tuple(
            r.event
            for r in self.records
            if kind is None or r.event.kind == kind
        )

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._emitted = 0
            self._sim_time = 0.0

    def close(self) -> None:
        """Write the last lines and close the file (no-op in memory/twice)."""
        with self._lock:
            if self._file is not None and not self._file.closed:
                self._write_lines()
                self._file.close()


_CURRENT: contextvars.ContextVar[Tracer] = contextvars.ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)


def current_tracer() -> Tracer:
    """The ambient tracer (the shared ``NULL_TRACER`` unless installed)."""
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install *tracer* as the ambient tracer for the enclosed block."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)


class timed:
    """Measure a wall-clock span; usable as context manager or decorator.

    As a context manager the span object is yielded and exposes
    ``.seconds`` after exit::

        with timed("fig15.tdp") as span:
            solve_min_latency(...)
        print(span.seconds)

    As a decorator every call of the wrapped function is measured::

        @timed("experiment.run")
        def run(...): ...

    Each closed span observes ``time.<label>`` on the metrics registry and
    emits :class:`~repro.obs.events.SpanCompleted` on the ambient tracer,
    giving both aggregate and per-occurrence views of the same
    measurement.
    """

    def __init__(
        self,
        label: str,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.label = label
        self.seconds: Optional[float] = None
        self._registry = registry
        self._clock = clock
        self._start: Optional[float] = None

    def __enter__(self) -> "timed":
        self._start = self._clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        assert self._start is not None, "span exited without entering"
        self.seconds = self._clock() - self._start
        registry = self._registry if self._registry is not None else get_registry()
        registry.histogram(f"time.{self.label}").observe(self.seconds)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit(SpanCompleted(label=self.label, seconds=self.seconds))

    def __call__(self, func: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # A fresh span per call: the instance-as-context-manager form
            # is single-use, the decorator form is reentrant.
            with timed(self.label, registry=self._registry, clock=self._clock):
                return func(*args, **kwargs)

        return wrapper
