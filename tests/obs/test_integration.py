"""End-to-end instrumentation: engines, allocators, RWL, platform, CLI.

Includes the regression guard: tracing must never perturb simulation
outcomes (same winner, rounds and latencies with the tracer off vs on).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.latency import LinearLatency
from repro.core.tdp import TDPAllocator, solve_min_latency
from repro.core.tdp_memo import solve_min_latency_memo
from repro.crowd.error_models import UniformError
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer
from repro.engine.adversarial import AdversarialMaxEngine
from repro.engine.max_engine import (
    MaxEngine,
    OracleAnswerSource,
    PlatformAnswerSource,
)
from repro.engine.topk import TopKEngine
from repro.obs.export import read_jsonl
from repro.obs.metrics import get_registry
from repro.obs.report import render_trace_report
from repro.obs.spans import assemble_spans
from repro.obs.tracer import NULL_TRACER, RecordingTracer, use_tracer
from repro.selection.tournament import TournamentFormation

LATENCY = LinearLatency(delta=239.0, alpha=0.06)


def _oracle_run(n_elements=40, budget=160, seed=7):
    """One oracle run under whatever tracer is ambient."""
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(n_elements, rng)
    allocation = TDPAllocator().allocate(n_elements, budget, LATENCY)
    engine = MaxEngine(
        TournamentFormation(), OracleAnswerSource(truth, LATENCY), rng
    )
    return engine.run(truth, allocation)


def _traced_oracle_run(tracer):
    with use_tracer(tracer):
        return _oracle_run()


class TestEngineTracing:
    def test_one_posted_received_pair_per_round(self):
        tracer = RecordingTracer()
        result = _traced_oracle_run(tracer)
        posted = tracer.events("RoundPosted")
        received = tracer.events("AnswersReceived")
        assert len(posted) == result.rounds_run >= 1
        assert len(received) == result.rounds_run
        assert [e.round_index for e in posted] == [
            e.round_index for e in received
        ]
        # Posted/received alternate in emission order.
        paired = [
            e for e in tracer.events() if e.kind in ("RoundPosted", "AnswersReceived")
        ]
        kinds = [e.kind for e in paired]
        assert kinds == ["RoundPosted", "AnswersReceived"] * result.rounds_run

    def test_candidate_counts_are_non_increasing(self):
        tracer = RecordingTracer()
        _traced_oracle_run(tracer)
        shrinks = tracer.events("CandidateSetShrunk")
        assert shrinks, "expected at least one CandidateSetShrunk event"
        for event in shrinks:
            assert event.candidates_after <= event.candidates_before
        counts = [shrinks[0].candidates_before] + [
            e.candidates_after for e in shrinks
        ]
        assert counts == sorted(counts, reverse=True)

    def test_run_lifecycle_events_match_result(self):
        tracer = RecordingTracer()
        result = _traced_oracle_run(tracer)
        (started,) = tracer.events("RunStarted")
        (finished,) = tracer.events("RunFinished")
        assert started.n_elements == 40
        assert started.engine == "MaxEngine"
        assert finished.winner == result.winner
        assert finished.rounds_run == result.rounds_run
        assert finished.total_questions == result.total_questions
        assert finished.total_latency == pytest.approx(result.total_latency)
        assert finished.singleton == result.singleton_termination

    def test_sim_clock_accumulates_round_latencies(self):
        tracer = RecordingTracer()
        result = _traced_oracle_run(tracer)
        received = [
            r for r in tracer.records if r.event.kind == "AnswersReceived"
        ]
        cumulative = 0.0
        for record in received:
            cumulative += record.event.latency
            assert record.sim_time == pytest.approx(cumulative)
        assert cumulative == pytest.approx(result.total_latency)

    def test_ambient_tracer_is_picked_up(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            result = _oracle_run()
        assert len(tracer.events("RoundPosted")) == result.rounds_run


class TestTopKAndAdversaryTracing:
    """Top-k and the worst-case adversary run on the shared round loop, so
    they emit the batch engines' run lifecycle under their own names."""

    def test_topk_emits_one_run_per_phase(self):
        rng = np.random.default_rng(3)
        truth = GroundTruth.random(30, rng)
        engine = TopKEngine(
            TournamentFormation(), OracleAnswerSource(truth, LATENCY),
            LATENCY, rng,
        )
        tracer = RecordingTracer()
        with use_tracer(tracer):
            result = engine.run(truth, 3, 120)
        phases = len(result.phase_records)
        assert phases == 3
        started = tracer.events("RunStarted")
        finished = tracer.events("RunFinished")
        assert [e.engine for e in started] == ["TopKEngine"] * phases
        assert [e.winner for e in finished] == list(result.ranking)
        assert [e.rounds_run for e in finished] == [
            len(records) for records in result.phase_records
        ]
        run_spans = [
            span for span in assemble_spans(tracer.records).values()
            if span.name == "run"
        ]
        assert len(run_spans) == phases
        assert all(span.parent_id is None for span in run_spans)
        report = render_trace_report(tracer.records)
        assert report.count("run: TopKEngine") == phases
        assert report.count("per-round breakdown:") == phases
        for winner in result.ranking:
            assert f"MAX={winner} (singleton)" in report

    def test_adversary_emits_one_named_run(self):
        allocation = TDPAllocator().allocate(24, 60, LATENCY)
        engine = AdversarialMaxEngine(
            TournamentFormation(), LATENCY, np.random.default_rng(0),
            mode="exact",
        )
        tracer = RecordingTracer()
        with use_tracer(tracer):
            result = engine.run(24, allocation)
        (started,) = tracer.events("RunStarted")
        (finished,) = tracer.events("RunFinished")
        assert started.engine == "AdversarialMaxEngine"
        assert started.rounds_planned == allocation.rounds
        assert finished.winner == result.winner
        assert finished.total_latency == pytest.approx(result.total_latency)
        assert len(tracer.events("RoundPosted")) == result.rounds_run
        report = render_trace_report(tracer.records)
        assert "run: AdversarialMaxEngine, c0=24, budget=" in report
        assert f"MAX={result.winner} (singleton)" in report


class TestAllocatorInstrumentation:
    def test_frontier_solver_emits_dp_table_built(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            plan = solve_min_latency(50, 200, LATENCY)
        (event,) = tracer.events("DPTableBuilt")
        assert event.solver == "frontier"
        assert event.n_elements == 50
        assert event.budget == 200
        assert event.states == sum(plan.frontier_sizes)
        assert event.seconds >= 0.0

    def test_memo_solver_emits_dp_table_built_and_counts_hits(self):
        registry = get_registry()
        registry.reset()
        tracer = RecordingTracer()
        with use_tracer(tracer):
            plan = solve_min_latency_memo(30, 120, LATENCY)
        (event,) = tracer.events("DPTableBuilt")
        assert event.solver == "memo"
        assert event.states == plan.states_visited
        snapshot = registry.snapshot()
        assert snapshot["tdp_memo.memo_misses"]["value"] > 0
        assert snapshot["tdp_memo.memo_hits"]["value"] > 0
        assert snapshot["tdp_memo.states_visited"]["value"] == plan.states_visited

    def test_engine_metrics_accumulate(self):
        registry = get_registry()
        registry.reset()
        result = _oracle_run()
        snapshot = registry.snapshot()
        assert snapshot["engine.runs"]["value"] == 1
        assert snapshot["engine.rounds"]["value"] == result.rounds_run
        assert (
            snapshot["engine.questions_posted"]["value"] == result.total_questions
        )
        assert snapshot["engine.candidates_after"]["samples"] == [
            record.candidates_after for record in result.records
        ]


class TestCrowdInstrumentation:
    def _noisy_run(self, tracer):
        rng = np.random.default_rng(3)
        truth = GroundTruth.random(16, rng)
        platform = SimulatedPlatform(truth, rng, error_model=UniformError(0.35))
        rwl = ReliableWorkerLayer(platform, rng, repetition=3)
        allocation = TDPAllocator().allocate(16, 60, LATENCY)
        engine = MaxEngine(TournamentFormation(), PlatformAnswerSource(rwl), rng)
        with use_tracer(tracer):
            return engine.run(truth, allocation)

    def test_platform_emits_worker_serviced(self):
        tracer = RecordingTracer()
        self._noisy_run(tracer)
        serviced = tracer.events("WorkerServiced")
        assert serviced
        for event in serviced:
            assert event.n_answers >= 1
            assert event.busy_time > 0.0

    def test_rwl_redundancy_metrics(self):
        registry = get_registry()
        registry.reset()
        self._noisy_run(RecordingTracer())
        snapshot = registry.snapshot()
        posted = snapshot["rwl.questions_posted"]["value"]
        distinct = snapshot["rwl.distinct_questions"]["value"]
        assert posted == 3 * distinct  # repetition overhead
        assert snapshot["platform.questions_posted"]["value"] == posted


class TestTracingIsNonInvasive:
    """Regression guard: instrumentation must not perturb outcomes."""

    def test_oracle_run_identical_with_tracer_off_and_on(self):
        baseline = _oracle_run()
        traced = _traced_oracle_run(RecordingTracer())
        assert traced.winner == baseline.winner
        assert traced.singleton_termination == baseline.singleton_termination
        assert traced.rounds_run == baseline.rounds_run
        assert traced.total_questions == baseline.total_questions
        assert traced.total_latency == pytest.approx(baseline.total_latency)
        assert traced.records == baseline.records

    def test_noisy_platform_run_identical_with_tracer_off_and_on(self):
        crowd = TestCrowdInstrumentation()
        baseline = crowd._noisy_run(NULL_TRACER)
        traced = crowd._noisy_run(RecordingTracer())
        assert traced.winner == baseline.winner
        assert traced.records == baseline.records
        assert traced.total_latency == pytest.approx(baseline.total_latency)


class TestCliObservability:
    def test_solve_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "out.jsonl"
        assert (
            main(
                [
                    "solve",
                    "--elements",
                    "30",
                    "--budget",
                    "150",
                    "--trace",
                    str(trace_path),
                    "--metrics",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "metrics snapshot:" in out
        # Per-round candidate counts, RWL overhead and DP timing all appear.
        assert "engine.candidates_after" in out
        assert "rwl.questions_posted" in out
        assert "time.tdp.solve" in out
        records = read_jsonl(trace_path)
        rounds = [r for r in records if r.event.kind == "RoundPosted"]
        assert len(rounds) >= 1
        # At least one event per executed round plus run lifecycle events.
        assert len(records) > len(rounds)

    def test_default_path_prints_no_observability_output(self, capsys):
        assert main(["solve", "--elements", "20", "--budget", "60"]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot" not in out
        assert "trace event" not in out

    def test_experiment_metrics_flag(self, capsys):
        assert main(["experiment", "fig15", "--scale", "small", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "metrics snapshot:" in out
        assert "tdp.solver_calls" in out
        assert "time.fig15.tdp" in out

    def test_verbose_flag_logs_round_progress(self, tmp_path, capsys, caplog):
        import logging

        with caplog.at_level(logging.DEBUG, logger="repro"):
            assert main(["-v", "solve", "--elements", "12", "--budget", "40"]) == 0
        messages = [record.getMessage() for record in caplog.records]
        assert any("candidates" in message for message in messages)
