"""Tests for the run/selector invariant checks."""

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.latency import LinearLatency
from repro.crowd.ground_truth import GroundTruth
from repro.engine.max_engine import MaxEngine, OracleAnswerSource
from repro.engine.results import MaxRunResult, RoundRecord
from repro.engine.validation import (
    ContractViolation,
    validate_run,
    validate_selection,
)
from repro.graphs.answer_graph import AnswerGraph
from repro.selection.base import SelectionContext
from repro.selection.tournament import TournamentFormation

LATENCY = LinearLatency(100, 1)


def make_context(candidates, budget):
    return SelectionContext(
        budget=budget,
        candidates=tuple(candidates),
        evidence=AnswerGraph(range(max(candidates) + 1)),
        round_index=0,
        total_rounds=1,
        rng=np.random.default_rng(0),
    )


class TestValidateSelection:
    def test_valid_selection_passes(self):
        ctx = make_context(range(10), 20)
        questions = TournamentFormation().select(ctx)
        validate_selection(ctx, questions)

    def test_over_budget(self):
        ctx = make_context(range(4), 1)
        with pytest.raises(ContractViolation):
            validate_selection(ctx, [(0, 1), (2, 3)])

    def test_non_canonical_pair(self):
        ctx = make_context(range(4), 5)
        with pytest.raises(ContractViolation):
            validate_selection(ctx, [(2, 1)])

    def test_non_candidate(self):
        ctx = make_context(range(4), 5)
        with pytest.raises(ContractViolation):
            validate_selection(ctx, [(0, 9)])

    def test_duplicate(self):
        ctx = make_context(range(4), 5)
        with pytest.raises(ContractViolation):
            validate_selection(ctx, [(0, 1), (0, 1)])

    def test_single_candidate_must_be_silent(self):
        ctx = make_context([7], 5)
        validate_selection(ctx, [])


class TestValidateRun:
    def run_real(self, n=16, budget=100, seed=0):
        rng = np.random.default_rng(seed)
        truth = GroundTruth.random(n, rng)
        allocation = Allocation.from_element_sequence((16, 4, 1))
        engine = MaxEngine(
            TournamentFormation(), OracleAnswerSource(truth, LATENCY), rng
        )
        return engine.run(truth, allocation)

    def test_real_runs_validate(self):
        for seed in range(5):
            result = self.run_real(seed=seed)
            validate_run(result, n_elements=16, budget=100)

    def make_result(self, records, singleton=True, total_questions=None):
        if total_questions is None:
            total_questions = sum(r.questions_posted for r in records)
        return MaxRunResult(
            winner=0,
            true_max=0,
            singleton_termination=singleton,
            total_latency=sum(r.latency for r in records),
            total_questions=total_questions,
            records=tuple(records),
        )

    def test_broken_chain_detected(self):
        records = [
            RoundRecord(0, 10, 8, 10, 50.0, 4),
            RoundRecord(1, 10, 5, 6, 50.0, 1),  # 5 != 4
        ]
        with pytest.raises(ContractViolation):
            validate_run(self.make_result(records), 8, 100)

    def test_candidate_increase_detected(self):
        records = [RoundRecord(0, 10, 8, 10, 50.0, 9)]
        with pytest.raises(ContractViolation):
            validate_run(self.make_result(records, singleton=False), 8, 100)

    def test_budget_overrun_per_round_detected(self):
        records = [RoundRecord(0, 5, 8, 6, 50.0, 1)]
        with pytest.raises(ContractViolation):
            validate_run(self.make_result(records), 8, 100)

    def test_total_budget_overrun_detected(self):
        records = [RoundRecord(0, 50, 8, 28, 50.0, 1)]
        with pytest.raises(ContractViolation):
            validate_run(self.make_result(records), 8, budget=20)

    def test_total_mismatch_detected(self):
        records = [RoundRecord(0, 10, 8, 7, 50.0, 1)]
        with pytest.raises(ContractViolation):
            validate_run(
                self.make_result(records, total_questions=99), 8, 100
            )

    def test_singleton_flag_consistency(self):
        records = [RoundRecord(0, 10, 8, 7, 50.0, 3)]
        with pytest.raises(ContractViolation):
            validate_run(self.make_result(records, singleton=True), 8, 100)
        records = [RoundRecord(0, 10, 8, 7, 50.0, 1)]
        with pytest.raises(ContractViolation):
            validate_run(self.make_result(records, singleton=False), 8, 100)

    def test_negative_latency_detected(self):
        records = [RoundRecord(0, 10, 8, 7, -1.0, 1)]
        with pytest.raises(ContractViolation):
            validate_run(self.make_result(records), 8, 100)
