"""Tests for JSON persistence of allocations, evidence and run results."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation
from repro.core.latency import (
    LinearLatency,
    PiecewiseLinearLatency,
    PowerLawLatency,
    TabulatedLatency,
)
from repro.crowd.error_models import (
    DistanceSensitiveError,
    PerfectWorkers,
    UniformError,
)
from repro.crowd.workers import WorkerPoolConfig
from repro.core.tdp import TDPAllocator
from repro.crowd.ground_truth import GroundTruth
from repro.engine.max_engine import MaxEngine, OracleAnswerSource
from repro.errors import InconsistentAnswersError, InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph
from repro.persistence import (
    allocation_from_dict,
    allocation_to_dict,
    answer_graph_from_dict,
    answer_graph_to_dict,
    error_model_from_dict,
    error_model_to_dict,
    latency_from_dict,
    latency_to_dict,
    load_json,
    run_result_from_dict,
    run_result_to_dict,
    save_json,
    worker_config_from_dict,
    worker_config_to_dict,
)
from repro.types import Answer

LATENCY = LinearLatency(239, 0.06)


class TestAllocationRoundTrip:
    def test_tournament_allocation(self):
        original = TDPAllocator().allocate(40, 200, LATENCY)
        restored = allocation_from_dict(allocation_to_dict(original))
        assert restored == original
        assert restored.allocator_name == "tDP"

    def test_plain_budget_allocation(self):
        original = Allocation(round_budgets=(17, 17, 17), allocator_name="uHE")
        restored = allocation_from_dict(allocation_to_dict(original))
        assert restored.round_budgets == (17, 17, 17)
        assert restored.element_sequence is None

    def test_tampered_payload_fails_validation(self):
        payload = allocation_to_dict(TDPAllocator().allocate(40, 200, LATENCY))
        payload["element_sequence"] = [40, 40, 1]  # not strictly decreasing
        with pytest.raises(InvalidParameterError):
            allocation_from_dict(payload)

    def test_missing_key_reported(self):
        with pytest.raises(InvalidParameterError):
            allocation_from_dict({"round_budgets": [1]})


class TestAnswerGraphRoundTrip:
    def test_round_trip_preserves_answers(self):
        graph = AnswerGraph(range(6))
        graph.record_all(
            [Answer(3, 0), Answer(3, 1), Answer(4, 2), Answer(5, 4)]
        )
        restored = answer_graph_from_dict(answer_graph_to_dict(graph))
        assert restored.elements == graph.elements
        assert np.array_equal(restored.sorted_answers(), graph.sorted_answers())
        assert restored.remaining_candidates() == graph.remaining_candidates()

    @given(st.integers(2, 12).map(lambda n: list(range(n))), st.data())
    @settings(max_examples=60, deadline=None)
    def test_payload_is_the_sorted_distinct_answers(self, elements, data):
        """The payload lists each recorded answer once, ascending, also
        when answers were recorded more than once."""
        rank = {e: i for i, e in enumerate(data.draw(st.permutations(elements)))}
        pair = st.tuples(st.sampled_from(elements), st.sampled_from(elements))
        pairs = data.draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=20))
        rows = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs]
        graph = AnswerGraph(elements)
        graph.record_pairs(np.array(rows + rows[:3], dtype=np.int64).reshape(-1, 2))
        payload = answer_graph_to_dict(graph)
        assert payload["answers"] == sorted(set(rows))
        assert payload["elements"] == elements

    def test_elements_other_than_0_to_n_minus_1_rejected(self):
        payload = {"elements": [0, 1, 2, 3, 4, 5, 6, 9], "answers": []}
        with pytest.raises(InvalidParameterError, match="9 is not"):
            answer_graph_from_dict(payload)

    @pytest.mark.parametrize(
        "elements, match",
        [
            ([0, 1, 2, 3, 3, 2], "element 3 appears more than once"),
            ([0.0, 1.0, 2.0, 3.0], "must be integers, got 0.0"),
            ([True, 0, 2, 3], "must be integers, got True"),
            (["0", "1"], "must be integers, got '0'"),
            (4, "must be an iterable of integers, got 4"),
        ],
    )
    def test_malformed_elements_rejected(self, elements, match):
        """A checkpoint's element list follows the rules of its answer
        rows: distinct integers, nothing converted."""
        payload = {"elements": elements, "answers": []}
        with pytest.raises(InvalidParameterError, match=match):
            answer_graph_from_dict(payload)

    def test_inconsistent_payload_rejected(self):
        payload = {
            "elements": [0, 1],
            "answers": [[0, 1], [1, 0]],  # both directions
        }
        with pytest.raises(InconsistentAnswersError):
            answer_graph_from_dict(payload)

    def test_float_answer_rejected_not_truncated(self):
        payload = {"elements": [0, 1, 2], "answers": [[1.9, 0]]}
        with pytest.raises(InvalidParameterError, match="integer"):
            answer_graph_from_dict(payload)

    def test_checkpoint_resume_between_rounds(self):
        """The intended workflow: persist evidence after a round, reload,
        and keep going with identical state."""
        rng = np.random.default_rng(0)
        truth = GroundTruth.random(12, rng)
        graph = AnswerGraph(range(12))
        for i in range(0, 12, 2):
            graph.record(truth.answer(i, i + 1))
        restored = answer_graph_from_dict(answer_graph_to_dict(graph))
        for a in (0, 2, 4):
            restored.record(truth.answer(a, a + 2))  # further rounds work
        assert len(restored.remaining_candidates()) < len(
            graph.remaining_candidates()
        )


class TestRunResultRoundTrip:
    def make_result(self):
        rng = np.random.default_rng(1)
        truth = GroundTruth.random(20, rng)
        allocation = TDPAllocator().allocate(20, 100, LATENCY)
        from repro.selection.tournament import TournamentFormation

        engine = MaxEngine(
            TournamentFormation(), OracleAnswerSource(truth, LATENCY), rng
        )
        return engine.run(truth, allocation)

    def test_round_trip(self):
        original = self.make_result()
        restored = run_result_from_dict(run_result_to_dict(original))
        assert restored == original

    def test_validates_after_restore(self):
        from repro.engine.validation import validate_run

        restored = run_result_from_dict(run_result_to_dict(self.make_result()))
        validate_run(restored, n_elements=20, budget=100)


class TestFileHelpers:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        graph = AnswerGraph(range(3))
        graph.record(Answer(0, 1))
        save_json(answer_graph_to_dict(graph), path)
        restored = answer_graph_from_dict(load_json(path))
        assert restored.sorted_answers().tolist() == [[0, 1]]

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            load_json(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(InvalidParameterError):
            load_json(path)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(InvalidParameterError):
            load_json(path)


class TestLatencyRoundTrip:
    @pytest.mark.parametrize(
        "latency",
        [
            LinearLatency(delta=239.0, alpha=0.06),
            PowerLawLatency(delta=100.0, alpha=2.0, p=0.7),
            PiecewiseLinearLatency([(1, 240.0), (50, 300.0), (200, 480.0)]),
            TabulatedLatency([(1, 250.0), (10, 260.0), (100, 400.0)]),
        ],
        ids=["linear", "power_law", "piecewise", "tabulated"],
    )
    def test_round_trip_preserves_the_function(self, latency):
        restored = latency_from_dict(latency_to_dict(latency))
        assert type(restored) is type(latency)
        for q in (1, 7, 42, 150):
            assert restored(q) == latency(q)
        # repr keys the service plan cache, so it must survive too.
        assert repr(restored) == repr(latency)

    def test_unknown_latency_class_rejected(self):
        # A class outside the known hierarchy must be refused loudly.
        class Alien:
            pass

        with pytest.raises(InvalidParameterError):
            latency_to_dict(Alien())


class TestErrorModelRoundTrip:
    @pytest.mark.parametrize(
        "model",
        [
            None,
            PerfectWorkers(),
            UniformError(rate=0.15),
            DistanceSensitiveError(base=0.3, scale=5.0),
        ],
        ids=["none", "perfect", "uniform", "distance"],
    )
    def test_round_trip(self, model):
        restored = error_model_from_dict(error_model_to_dict(model))
        if model is None:
            assert restored is None
            return
        assert type(restored) is type(model)
        truth = GroundTruth.random(10, np.random.default_rng(0))
        for a, b in ((0, 1), (2, 9), (4, 5)):
            assert restored.error_probability(
                truth, a, b
            ) == model.error_probability(truth, a, b)


class TestWorkerConfigRoundTrip:
    def test_round_trip(self):
        config = WorkerPoolConfig(mean_service_time=5.0, base_workers=3)
        restored = worker_config_from_dict(worker_config_to_dict(config))
        assert restored == config

    def test_none_passes_through(self):
        assert worker_config_to_dict(None) is None
        assert worker_config_from_dict(None) is None


class TestAtomicSaveJson:
    def test_failed_replace_preserves_the_old_file(self, tmp_path, monkeypatch):
        """A crash mid-save must never leave a truncated checkpoint: the
        write goes to a temp file and only an atomic rename publishes it."""
        path = tmp_path / "checkpoint.json"
        save_json({"kind": "test", "generation": 1}, path)

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("repro.persistence.os.replace", exploding_replace)
        with pytest.raises(OSError):
            save_json({"kind": "test", "generation": 2}, path)
        monkeypatch.undo()
        assert load_json(path) == {"kind": "test", "generation": 1}
        # The failed attempt cleans up its temp file.
        assert list(tmp_path.iterdir()) == [path]

    def test_unserializable_payload_leaves_no_file(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        with pytest.raises(TypeError):
            save_json({"bad": object()}, path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_save_overwrites_in_place(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_json({"kind": "test", "generation": 1}, path)
        save_json({"kind": "test", "generation": 2}, path)
        assert load_json(path) == {"kind": "test", "generation": 2}
        assert list(tmp_path.iterdir()) == [path]
