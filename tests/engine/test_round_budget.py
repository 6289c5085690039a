"""Every MAX driver rejects a selector that overspends its round budget.

The round budget is the allocation's promise to the requester: a selector
returning more questions than ``ctx.budget`` would silently spend past the
total budget.  On c0=10 the selector below asks all 45 pairs in round one,
far past any round budget the drivers grant.
"""

import numpy as np
import pytest

from repro.core.allocation import Allocation
from repro.core.latency import LinearLatency
from repro.crowd.ground_truth import GroundTruth
from repro.engine.adaptive import AdaptiveMaxEngine
from repro.engine.adversarial import AdversarialMaxEngine
from repro.engine.max_engine import MaxEngine, OracleAnswerSource
from repro.engine.session import MaxSession
from repro.engine.topk import TopKEngine
from repro.errors import InvalidParameterError
from repro.selection.base import QuestionSelector, all_pairs

LATENCY = LinearLatency(delta=60.0, alpha=2.0)
N_ELEMENTS = 10
#: The tDP allocation for c0=10, b=10.
ALLOCATION = Allocation((5, 4, 1))


class AllPairs(QuestionSelector):
    """Ignores the round budget and asks every candidate pair."""

    name = "ALL-PAIRS"

    def select(self, ctx):
        return all_pairs(ctx.candidates)


def _max_engine(truth, rng):
    source = OracleAnswerSource(truth, LATENCY)
    MaxEngine(AllPairs(), source, rng).run(truth, ALLOCATION)


def _adaptive(truth, rng):
    source = OracleAnswerSource(truth, LATENCY)
    AdaptiveMaxEngine(AllPairs(), source, LATENCY, rng).run(truth, 12)


def _topk(truth, rng):
    source = OracleAnswerSource(truth, LATENCY)
    TopKEngine(AllPairs(), source, LATENCY, rng).run(truth, k=2, budget=11)


def _adversarial(truth, rng):
    AdversarialMaxEngine(AllPairs(), LATENCY, rng).run(N_ELEMENTS, ALLOCATION)


def _session(truth, rng):
    MaxSession(ALLOCATION, AllPairs(), N_ELEMENTS, rng).pending_questions()


@pytest.mark.parametrize(
    "drive", [_max_engine, _adaptive, _topk, _adversarial, _session]
)
def test_selector_past_the_round_budget_is_rejected(drive):
    rng = np.random.default_rng(0)
    truth = GroundTruth.random(N_ELEMENTS, rng)
    with pytest.raises(InvalidParameterError, match="ALL-PAIRS"):
        drive(truth, rng)
