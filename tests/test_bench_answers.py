"""The answers the solver-gate benches build in one ``GroundTruth.winners``
call are the answers of one ``GroundTruth.answer`` call per question."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.crowd.ground_truth import GroundTruth
from repro.graphs.tournaments import tournament_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from bench_core_ops import round_answers  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_round_answers_are_the_per_question_answers(seed):
    """Seeds 1 and 2 are the rounds of ``bench_answer_graph_ingest`` and
    ``bench_scoring_function``."""
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(500, rng)
    questions = tournament_graph(rng.permutation(500), 50)
    assert round_answers(truth, questions) == [
        truth.answer(a, b) for a, b in questions.tolist()
    ]
