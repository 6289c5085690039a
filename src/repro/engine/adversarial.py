"""Adversarial (worst-case) execution of the MAX operation.

Section 4 analyzes the *worst case*: after each round the answers are the
ones that keep the maximum number of candidates alive (the maxRC set of
the round's question graph, which equals its maximum independent set by
Theorem 2).  This module executes any (allocation, selector) combination
against exactly that adversary, so Theorem 4 — no combination beats tDP +
Tournament formation in the worst case — can be probed experimentally for
selectors whose worst case is hard to reason about (SPREAD, CT25, ...).

Computing a maximum independent set is NP-hard, so the adversary offers
two modes: ``exact`` (branch-and-bound; fine for the paper-scale rounds of
tournament graphs and for small collections) and ``greedy`` (min-degree
heuristic; a *legal but possibly suboptimal* adversary, i.e. the reported
latency is a lower bound on the true worst case).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.latency import LatencyFunction
from repro.engine.max_engine import AnswerSource, MaxEngine
from repro.engine.results import MaxRunResult
from repro.errors import InvalidParameterError
from repro.graphs.candidates import greedy_independent_set, max_independent_set, worst_case_answers
from repro.selection.base import QuestionSelector
from repro.types import Element


class WorstCaseAnswerSource(AnswerSource):
    """Answers each round so that its maxRC set survives (Theorem 2).

    The adversary follows its own :attr:`candidates`: each round keeps an
    independent set of the round's question graph over them (exact or
    greedy, see :class:`AdversarialMaxEngine`) and every other questioned
    candidate loses.  A round is priced at ``latency(questions posted)``.
    """

    def __init__(self, latency: LatencyFunction, mode: str) -> None:
        if mode not in ("exact", "greedy"):
            raise InvalidParameterError(
                f"mode must be 'exact' or 'greedy', got {mode!r}"
            )
        self.latency = latency
        self.mode = mode
        self.candidates: Tuple[Element, ...] = ()

    def resolve(self, questions: np.ndarray) -> Tuple[np.ndarray, float]:
        find = max_independent_set if self.mode == "exact" else greedy_independent_set
        survivors = find(self.candidates, questions.tolist())
        answers = worst_case_answers(self.candidates, questions, survivors)
        alive = np.array(self.candidates, dtype=np.int64)
        self.candidates = tuple(alive[~np.isin(alive, answers[:, 1])].tolist())
        return answers, self.latency(len(questions))


class AdversarialMaxEngine(MaxEngine):
    """Run an allocation against worst-case (maxRC) answers.

    Args:
        selector: the question-selection strategy under test.
        latency: latency model pricing each round at ``L(q posted)``.
        rng: randomness source for the selector.
        mode: ``"exact"`` (true maxRC via exact MIS) or ``"greedy"``
            (heuristic adversary; lower-bounds the worst case).
    """

    source: WorstCaseAnswerSource

    def __init__(
        self,
        selector: QuestionSelector,
        latency: LatencyFunction,
        rng: np.random.Generator,
        mode: str = "greedy",
    ) -> None:
        super().__init__(selector, WorstCaseAnswerSource(latency, mode), rng)

    def run(self, n_elements: int, allocation: Allocation) -> MaxRunResult:
        """Execute *allocation* with the adversary answering every round.

        There is no hidden ground truth: the adversary invents a consistent
        order on the fly (the Lemma 2 construction guarantees the combined
        answers stay acyclic, because each round's surviving set is ranked
        above everything it is compared with).  The reported ``true_max``
        is the eventual winner itself, so ``correct`` is vacuously true;
        the quantities of interest are latency, rounds and the singleton
        flag.
        """
        if n_elements < 1:
            raise InvalidParameterError(
                f"n_elements must be >= 1, got {n_elements}"
            )
        candidates = tuple(range(n_elements))
        self.source.candidates = candidates
        return self._run(candidates, allocation)
