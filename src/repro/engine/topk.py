"""Top-k retrieval by repeated MAX phases with evidence reuse.

The paper's conclusion suggests the tDP approach "can be adapted to other
scenarios"; top-k (Davidson et al. [7] in the paper's related work) is the
most natural one.  This module finds the k best elements by peeling MAX
winners one at a time, with two ingredients that make it much cheaper than
k independent MAX runs:

* **evidence reuse** — answers never expire.  After the MAX is removed,
  the phase-2 candidates are exactly the elements whose every recorded
  loss was against already-found elements; for a tournament-selected
  phase 1 this is just the runners-up of the winner's tournaments.
* **adaptive allocation** — each phase re-plans with tDP from the actual
  (candidates, remaining budget) state, so budget a phase did not need
  flows into the next one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from repro.core.latency import LatencyFunction
from repro.crowd.ground_truth import GroundTruth
from repro.engine.adaptive import replan_each_round
from repro.engine.max_engine import AnswerSource, _run_rounds
from repro.engine.results import RoundRecord
from repro.errors import InvalidParameterError
from repro.graphs.answer_graph import AnswerGraph
from repro.selection.base import QuestionSelector
from repro.types import Element


@dataclass(frozen=True)
class TopKResult:
    """Outcome of a top-k run.

    Attributes:
        ranking: the identified elements, best first (length <= k; shorter
            only if the budget ran out mid-phase).
        true_ranking: the actual top-k under the hidden order.
        total_latency: seconds across all phases.
        total_questions: distinct questions posted across all phases.
        phase_records: per-phase, per-round execution trace.
    """

    ranking: Tuple[Element, ...]
    true_ranking: Tuple[Element, ...]
    total_latency: float
    total_questions: int
    phase_records: Tuple[Tuple[RoundRecord, ...], ...]

    @property
    def correct(self) -> bool:
        """Whether the full returned ranking matches the true top-k."""
        return self.ranking == self.true_ranking


def minimum_topk_budget(n_elements: int, k: int) -> int:
    """Lower bound on the budget for top-k (generalizing Theorem 1).

    Every element outside the top-k must lose at least once, and the top-k
    must be mutually ordered, which needs at least ``k - 1`` further
    comparisons: ``(n - k) + (k - 1) = n - 1`` ... but each peel phase must
    also re-certify a fresh winner, so the safe bound used here is the sum
    of per-phase Theorem 1 minima for the worst case (no evidence reuse):
    phase ``j`` can face up to ``n - j`` candidates.  Evidence reuse makes
    real runs far cheaper; the bound is only a feasibility guard.
    """
    if n_elements < 1:
        raise InvalidParameterError(f"n_elements must be >= 1: {n_elements}")
    if not 1 <= k <= n_elements:
        raise InvalidParameterError(
            f"k must be in [1, n_elements={n_elements}], got {k}"
        )
    return n_elements - 1 + (k - 1)


class TopKEngine:
    """Find the k best elements via successive adaptive MAX phases."""

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

    def run(self, truth: GroundTruth, k: int, budget: int) -> TopKResult:
        """Identify the top *k* of *truth*'s collection within *budget*.

        Each phase runs the MAX operation over the current candidates with
        per-round tDP re-planning; the phase winner joins the ranking and
        the next phase starts from the evidence accumulated so far.
        """
        n_elements = truth.n_elements
        if budget < minimum_topk_budget(n_elements, k):
            raise InvalidParameterError(
                f"budget {budget} below the top-{k} minimum of "
                f"{minimum_topk_budget(n_elements, k)} for {n_elements} "
                f"elements"
            )
        evidence = AnswerGraph(range(n_elements))
        found: List[Element] = []
        remaining_budget = budget
        total_latency = 0.0
        total_questions = 0
        phase_records: List[Tuple[RoundRecord, ...]] = []
        for _ in range(k):
            phase = _run_rounds(
                self,
                replan_each_round(self.latency, remaining_budget),
                _phase_candidates(evidence, set(found)),
                evidence=evidence,
                budget=remaining_budget,
                allocation=None,
                skip_empty=False,
            )
            total_latency += phase.total_latency
            total_questions += phase.total_questions
            remaining_budget -= phase.total_questions
            phase_records.append(phase.records)
            if not phase.singleton_termination:
                break  # budget exhausted before the phase could finish
            found.append(phase.winner)
        return TopKResult(
            ranking=tuple(found),
            true_ranking=tuple(truth.order[: len(found)].tolist()),
            total_latency=total_latency,
            total_questions=total_questions,
            phase_records=tuple(phase_records),
        )


def _phase_candidates(
    evidence: AnswerGraph, found: Set[Element]
) -> Tuple[Element, ...]:
    """Elements whose every recorded loss was against already-found ones."""
    rows = evidence.sorted_answers()
    excluded = np.zeros(len(evidence), bool)
    excluded[list(found)] = True
    # The losers to a winner not found yet (read before it is updated).
    excluded[rows[~excluded[rows[:, 0]], 1]] = True
    return tuple(np.flatnonzero(~excluded).tolist())
