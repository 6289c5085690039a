"""Adaptive re-planning: re-run tDP from the current state each round.

The dynamic-programming insight of Section 3 (Figure 5) is that the
lowest-latency continuation from a state of ``c`` surviving candidates and
``q`` remaining questions does not depend on how the state was reached.
The static tDP plan exploits this offline; this module exploits it
*online*: after every round it re-solves MinLatency for the actual
(candidates, remaining budget) state and uses the new plan's first round.

With pure tournament selection and error-free answers the execution always
lands exactly on the planned state, so adaptivity changes nothing — a
property the test suite checks.  Adaptivity pays off whenever rounds
eliminate more candidates than the worst case guarantees: leftover
cross-tournament questions, exploiting selectors (CT25/GREEDY), or an eDP
first round.  The remaining budget is then re-invested optimally instead
of following a stale plan.

The same mechanism is the adaptive engine's graceful degradation under
platform faults (:mod:`repro.crowd.faults`): when a lossy round resolves
fewer answers than it posted, the next iteration simply re-plans from the
actual surviving candidates and leftover budget.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.latency import LatencyFunction
from repro.core.tdp import solve_min_latency
from repro.crowd.ground_truth import GroundTruth
from repro.engine.max_engine import AnswerSource, RoundPlan, _run_rounds
from repro.engine.results import MaxRunResult
from repro.errors import InvalidParameterError
from repro.selection.base import QuestionSelector


def replan_each_round(latency: LatencyFunction, budget: int) -> RoundPlan:
    """Each round's budget: the first round of a fresh tDP plan for the
    current (candidates, remaining of *budget*) state.

    The run ends once the leftover budget cannot guarantee further
    progress (Theorem 1).  Every round spends at least one question, so
    *budget* also bounds the number of rounds.
    """

    def plan_round(
        round_index: int, n_candidates: int, spent: int
    ) -> Optional[Tuple[int, int]]:
        remaining = budget - spent
        if remaining < n_candidates - 1:
            return None
        plan = solve_min_latency(n_candidates, remaining, latency)
        # The current plan's horizon; selectors that split rounds into
        # phases (CT25) see a consistent total.
        horizon = max(plan.rounds, round_index + 1)
        return plan.questions_for_first_round(), horizon

    return plan_round


class AdaptiveMaxEngine:
    """MAX operator that re-plans the budget split after every round.

    Args:
        selector: question-selection strategy for each round.
        source: answer source (oracle or platform).
        latency: the latency model tDP plans against.
        rng: randomness source.
    """

    def __init__(
        self,
        selector: QuestionSelector,
        source: AnswerSource,
        latency: LatencyFunction,
        rng: np.random.Generator,
    ) -> None:
        self.selector = selector
        self.source = source
        self.latency = latency
        self._rng = rng

    def run(self, truth: GroundTruth, budget: int) -> MaxRunResult:
        """Find the MAX of *truth*'s collection within *budget* questions.

        Unlike :class:`repro.engine.max_engine.MaxEngine` there is no
        precomputed allocation: each round's budget is the first round of a
        fresh tDP plan for the current state.
        """
        if budget < truth.n_elements - 1:
            raise InvalidParameterError(
                f"budget {budget} < c0 - 1 = {truth.n_elements - 1} (Theorem 1)"
            )
        # A lossy round needs no special recovery: the next round re-plans
        # from the actual survivors anyway.
        return _run_rounds(
            self,
            replan_each_round(self.latency, budget),
            tuple(range(truth.n_elements)),
            true_max=truth.max_element,
            budget=budget,
            allocation=None,
            skip_empty=False,
        )
