"""Turn a trace into a human-readable latency/budget breakdown.

The per-round table answers the questions the paper's latency argument is
about: how many candidates entered each round, how much of the budget the
round spent, how long it took (simulated platform seconds), and how the
total latency accumulates.  Sections for DP-solver builds, RWL repairs and
profiling spans follow when the trace contains them.

Use it programmatically (:func:`render_trace_report`) or straight from a
JSONL file written by ``tdp-repro solve --trace`` (:func:`report_file`)::

    python -c "from repro.obs.report import report_file; print(report_file('out.jsonl'))"
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.obs.events import TraceRecord
from repro.obs.export import read_jsonl


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def render(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))
    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)


def render_trace_report(records: Sequence[TraceRecord]) -> str:
    """Render a full trace as a multi-section text report."""
    sections: List[str] = []

    starts = [i for i, r in enumerate(records) if r.event.kind == "RunStarted"]
    if not starts:
        sections.append(_round_table(records))
    # One header and round table per run (a top-k run is one per phase).
    for begin, stop in zip(starts, starts[1:] + [len(records)]):
        run = records[begin:stop]
        start = run[0].event
        header = (
            f"run: {start.engine}, c0={start.n_elements}, "
            f"budget={start.budget}"
        )
        finishes = [r for r in run if r.event.kind == "RunFinished"]
        if finishes:
            end = finishes[-1].event
            status = "singleton" if end.singleton else "ambiguous"
            header += (
                f"\nresult: MAX={end.winner} ({status}) in {end.rounds_run} "
                f"rounds, {end.total_questions} questions, "
                f"{end.total_latency:.1f} s simulated"
            )
        sections.append(header)
        sections.append(_round_table(run))

    dp_rows = [
        [
            r.event.solver,
            str(r.event.n_elements),
            str(r.event.budget),
            str(r.event.states),
            f"{r.event.seconds * 1000:.2f}",
        ]
        for r in records
        if r.event.kind == "DPTableBuilt"
    ]
    if dp_rows:
        sections.append(
            "allocator DP builds:\n"
            + _format_table(
                ("solver", "c0", "budget", "states", "build (ms)"), dp_rows
            )
        )

    rwl = [r.event for r in records if r.event.kind == "RWLRetry"]
    if rwl:
        total_flips = sum(e.majority_flips for e in rwl)
        overhead = sum(e.questions_posted - e.distinct_questions for e in rwl)
        sections.append(
            f"RWL repairs: {len(rwl)} batch(es) needed cycle resolution, "
            f"{total_flips} answer(s) flipped, "
            f"{overhead} redundant question(s) posted"
        )

    spans = [r.event for r in records if r.event.kind == "SpanCompleted"]
    if spans:
        by_label: Dict[str, List[float]] = {}
        for span in spans:
            by_label.setdefault(span.label, []).append(span.seconds)
        span_rows = [
            [
                label,
                str(len(values)),
                f"{sum(values) * 1000:.2f}",
                f"{1000 * sum(values) / len(values):.2f}",
            ]
            for label, values in sorted(by_label.items())
        ]
        sections.append(
            "profiling spans:\n"
            + _format_table(("label", "calls", "total (ms)", "mean (ms)"), span_rows)
        )

    return "\n\n".join(sections)


def _round_table(records: Sequence[TraceRecord]) -> str:
    """The per-round latency/budget breakdown (the report's centerpiece)."""
    posted: Dict[int, object] = {}
    received: Dict[int, object] = {}
    shrunk: Dict[int, object] = {}
    for record in records:
        event = record.event
        if event.kind == "RoundPosted":
            posted[event.round_index] = event
        elif event.kind == "AnswersReceived":
            received[event.round_index] = event
        elif event.kind == "CandidateSetShrunk":
            shrunk[event.round_index] = event
    if not posted:
        return "(no rounds recorded)"
    rows = []
    cumulative = 0.0
    for index in sorted(posted):
        post = posted[index]
        recv = received.get(index)
        shrink = shrunk.get(index)
        latency = recv.latency if recv is not None else float("nan")
        cumulative += 0.0 if recv is None else recv.latency
        rows.append(
            [
                str(index),
                str(post.candidates_before),
                "-" if shrink is None else str(shrink.candidates_after),
                str(post.budget),
                str(post.questions_posted),
                f"{latency:.1f}",
                f"{cumulative:.1f}",
            ]
        )
    return "per-round breakdown:\n" + _format_table(
        (
            "round",
            "cand in",
            "cand out",
            "budget",
            "questions",
            "latency (s)",
            "cum (s)",
        ),
        rows,
    )


def report_file(path: Union[str, Path]) -> str:
    """Read a JSONL trace file and render its report."""
    return render_trace_report(read_jsonl(path))
