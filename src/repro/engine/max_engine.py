"""The crowdsourced MAX operator.

:class:`MaxEngine` ties the pieces together the way Section 1 describes the
operator: it receives a budget allocation (the vector of per-round question
counts), lets a question-selection algorithm pick each round's questions,
sends them to an answer source, folds the answers into the evidence DAG, and
stops as soon as a single candidate remains (or the allocation is
exhausted).

Two answer sources are provided:

* :class:`OracleAnswerSource` — answers come straight from the ground truth
  and the round latency is *computed* from a latency function.  This is the
  mode of Sections 6.3-6.6 ("instead of actually posting the questions on
  MTurk, we compute the time it would take").
* :class:`PlatformAnswerSource` — questions go through the Reliable Worker
  Layer to the simulated platform, and latency is *measured*.  This is the
  mode of the real-time experiment (Section 6.2).
"""

from __future__ import annotations

import functools
import itertools
import logging
from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation
from repro.core.latency import LatencyFunction
from repro.core.tdp import solve_min_latency
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.rwl import ReliableWorkerLayer
from repro.engine.results import MaxRunResult, RoundRecord
from repro.graphs.answer_graph import AnswerGraph
from repro.obs.events import (
    AnswersReceived,
    CandidateSetShrunk,
    RoundPosted,
    RunFinished,
    RunStarted,
)
from repro.obs.metrics import get_registry
from repro.obs.spans import close_span, open_span, span_scope
from repro.obs.tracer import current_tracer
from repro.selection.base import QuestionSelector, SelectionContext, select_round
from repro.selection.scoring import best_scored
from repro.types import Element

logger = logging.getLogger(__name__)


class AnswerSource(ABC):
    """Resolves one round's questions into answers plus the round latency."""

    @abstractmethod
    def resolve(self, questions: np.ndarray) -> Tuple[np.ndarray, float]:
        """Answer one round's ``(k, 2)`` int64 *questions*; return
        ``(answers, seconds the round took)``, *answers* being ``(winner,
        loser)`` int64 rows in question order (fewer when a source is lossy).
        """


class OracleAnswerSource(AnswerSource):
    """Ground-truth answers with model-computed latency (error-free mode)."""

    def __init__(self, truth: GroundTruth, latency: LatencyFunction) -> None:
        self.truth = truth
        self.latency = latency

    def resolve(self, questions: np.ndarray) -> Tuple[np.ndarray, float]:
        winners = self.truth.winners(questions)
        losers = questions.sum(axis=1) - winners
        return np.column_stack((winners, losers)), self.latency(len(questions))


class PlatformAnswerSource(AnswerSource):
    """Answers via the Reliable Worker Layer; latency is simulated."""

    def __init__(self, rwl: ReliableWorkerLayer) -> None:
        self.rwl = rwl

    def resolve(self, questions: np.ndarray) -> Tuple[np.ndarray, float]:
        result = self.rwl.ask(questions)
        return result.answers, result.latency


class MaxEngine:
    """Runs the round-based MAX operation for one allocation.

    Args:
        selector: question-selection strategy for each round.
        source: answer source (oracle or platform).
        rng: randomness source.
        replan_latency: graceful degradation under platform faults — when
            a round resolves fewer answers than it posted (a lossy answer
            source gave up on some questions), re-solve MinLatency for the
            actual surviving candidates and the leftover budget and replace
            the remaining round budgets with the fresh plan.  ``None``
            (the default) keeps the static allocation untouched, which is
            the paper's error-free behaviour.
    """

    def __init__(
        self,
        selector: QuestionSelector,
        source: AnswerSource,
        rng: np.random.Generator,
        replan_latency: Optional[LatencyFunction] = None,
    ) -> None:
        self.selector = selector
        self.source = source
        self._rng = rng
        self.replan_latency = replan_latency

    def run(self, truth: GroundTruth, allocation: Allocation) -> MaxRunResult:
        """Execute *allocation* against *truth* and return the full trace.

        Rounds stop early once a single candidate remains (the operator
        "stops asking questions if just a single element not having lost any
        comparison remains", Section 6.2).  If candidates remain after the
        final round, the highest-scoring one is declared the MAX — a
        non-singleton termination.
        """
        return self._run(
            tuple(range(truth.n_elements)), allocation, truth.max_element
        )

    def _run(
        self,
        candidates: Tuple[Element, ...],
        allocation: Allocation,
        true_max: Optional[Element] = None,
    ) -> MaxRunResult:
        # _replan_remaining rewrites the tail of this list in place, and
        # plan_round reads it live, so a re-plan takes effect next round.
        budgets = list(allocation.round_budgets)

        def plan_round(round_index: int, *_: int) -> Optional[Tuple[int, int]]:
            if round_index < len(budgets):
                return budgets[round_index], len(budgets)
            return None

        return _run_rounds(
            self,
            plan_round,
            candidates,
            true_max=true_max,
            budget=allocation.total_questions,
            allocation=allocation,
            skip_empty=True,
            on_lossy=functools.partial(self._replan_remaining, budgets),
        )

    def _replan_remaining(
        self, budgets: List[int], round_index: int, n_candidates: int
    ) -> None:
        """Replace the budgets after *round_index* with a fresh tDP plan.

        No-op unless the engine was built with ``replan_latency``, the run
        is still undecided and the leftover budget can make progress
        (Theorem 1: at least ``candidates - 1`` questions).
        """
        if self.replan_latency is None or n_candidates <= 1:
            return
        leftover = sum(budgets[round_index + 1:])
        if leftover < n_candidates - 1:
            logger.warning(
                "cannot re-plan: leftover budget %d < %d (Theorem 1); "
                "keeping the stale allocation",
                leftover,
                n_candidates - 1,
            )
            return
        plan = solve_min_latency(n_candidates, leftover, self.replan_latency)
        replanned = Allocation.from_element_sequence(
            plan.sequence, "tDP (replanned)"
        )
        budgets[round_index + 1:] = list(replanned.round_budgets)
        get_registry().counter("engine.replans").inc()
        logger.info(
            "re-planned %d leftover questions over %d candidates into "
            "rounds %s",
            leftover,
            n_candidates,
            replanned.round_budgets,
        )


#: ``plan_round(round_index, n_candidates, questions_spent)`` gives a
#: round's ``(budget, total_rounds)``, or ``None`` to end the run.
RoundPlan = Callable[[int, int, int], Optional[Tuple[int, int]]]


def _run_rounds(
    engine,
    plan_round: RoundPlan,
    candidates: Tuple[Element, ...],
    *,
    evidence: Optional[AnswerGraph] = None,
    true_max: Optional[Element] = None,
    budget: int,
    allocation: Optional[Allocation],
    skip_empty: bool,
    on_lossy: Optional[Callable[[int, int], None]] = None,
) -> MaxRunResult:
    """The round loop of every batch MAX engine.

    *engine* supplies ``selector``, ``source`` and ``_rng``; events go to the
    ambient tracer (:func:`repro.obs.current_tracer`), named after
    *engine*'s class.  The run starts from *candidates* and *evidence*
    (default: a fresh graph over *candidates*).  A round stays one
    ``(k, 2)`` int64 array: the selector's questions go to the source as
    they are, and its ``(winner, loser)`` rows go to the evidence as they
    are; their losers leave the candidates.
    Runs until one candidate remains or *plan_round* returns ``None``.  A
    round whose selector returns nothing is skipped (*skip_empty*) or ends
    the run; a lossy round (fewer answers than distinct questions) calls
    ``on_lossy(round_index, n_candidates)``.  A missing *true_max* reports
    the winner as the true MAX.  *budget* and *allocation* only describe
    the run, in ``RunStarted`` and the result.
    """
    n_elements = len(candidates)
    if evidence is None:
        evidence = AnswerGraph(candidates)
    alive = np.array(candidates, dtype=np.int64)
    lost = np.zeros(len(evidence), bool)
    records: List[RoundRecord] = []
    total_latency = 0.0
    total_questions = 0
    tracer = current_tracer()
    registry = get_registry()
    registry.counter("engine.runs").inc()
    engine_name = type(engine).__name__
    # Structural root-span id: the tracer's emission count at run start
    # distinguishes successive runs on one tracer and is reproducible
    # (identical runs emit identical event sequences).
    run_span = f"run{getattr(tracer, 'emitted', 0)}"
    if tracer.enabled:
        open_span(
            tracer,
            run_span,
            "run",
            start=0.0,
            detail=f"{engine_name} c0={n_elements}",
        )
        tracer.emit(
            RunStarted(
                n_elements=n_elements,
                budget=budget,
                rounds_planned=allocation.rounds if allocation is not None else 0,
                engine=engine_name,
            ),
            sim_time=0.0,
        )
    for round_index in itertools.count():
        if len(candidates) <= 1:
            break
        planned = plan_round(round_index, len(candidates), total_questions)
        if planned is None:
            break
        round_budget, total_rounds = planned
        context = SelectionContext(
            budget=round_budget,
            candidates=candidates,
            evidence=evidence,
            round_index=round_index,
            total_rounds=total_rounds,
            rng=engine._rng,
        )
        questions = select_round(engine.selector, context)
        if not len(questions):
            # Nothing to post; the round costs no latency.
            logger.debug(
                "round %d: selector %s returned no questions for %d "
                "candidates (budget %d)",
                round_index,
                engine.selector.name,
                len(candidates),
                round_budget,
            )
            if skip_empty:
                continue
            break
        round_span = f"{run_span}/r{round_index}"
        if tracer.enabled:
            open_span(
                tracer,
                round_span,
                "round",
                start=total_latency,
                parent_id=run_span,
                detail=f"{len(questions)} questions",
            )
            tracer.emit(
                RoundPosted(
                    round_index=round_index,
                    budget=round_budget,
                    questions_posted=len(questions),
                    candidates_before=len(candidates),
                ),
                sim_time=total_latency,
            )
        with span_scope(round_span, base_time=total_latency):
            answers, latency = engine.source.resolve(questions)
        evidence.record_pairs(answers)
        lost[answers[:, 1]] = True
        alive = alive[~lost[alive]]
        next_candidates = tuple(alive.tolist())
        if tracer.enabled:
            close_span(tracer, round_span, end=total_latency + latency)
            tracer.emit(
                AnswersReceived(
                    round_index=round_index,
                    n_answers=len(answers),
                    latency=latency,
                ),
                sim_time=total_latency + latency,
            )
            tracer.emit(
                CandidateSetShrunk(
                    round_index=round_index,
                    candidates_before=len(candidates),
                    candidates_after=len(next_candidates),
                ),
                sim_time=total_latency + latency,
            )
            tracer.advance_sim(latency)
        registry.counter("engine.rounds").inc()
        registry.counter("engine.questions_posted").inc(len(questions))
        registry.counter("engine.answers_resolved").inc(len(answers))
        registry.histogram("engine.candidates_after").observe(
            len(next_candidates)
        )
        logger.debug(
            "round %d: %d -> %d candidates, %d questions (budget %d), %.1f s",
            round_index,
            len(candidates),
            len(next_candidates),
            len(questions),
            round_budget,
            latency,
        )
        records.append(
            RoundRecord(
                round_index=round_index,
                budget=round_budget,
                candidates_before=len(candidates),
                questions_posted=len(questions),
                latency=latency,
                candidates_after=len(next_candidates),
            )
        )
        total_latency += latency
        total_questions += len(questions)
        candidates = next_candidates
        stride = int(questions.max()) + 1
        distinct_posted = len(np.unique(questions[:, 0] * stride + questions[:, 1]))
        if len(answers) < distinct_posted:
            # A lossy answer source gave up on some questions: the
            # candidate set shrank only as far as the surviving answers
            # allow.
            registry.counter("engine.degraded_rounds").inc()
            logger.warning(
                "round %d degraded: %d of %d questions unanswered; "
                "%d candidates survive",
                round_index,
                distinct_posted - len(answers),
                distinct_posted,
                len(candidates),
            )
            if on_lossy is not None:
                on_lossy(round_index, len(candidates))
    singleton = len(candidates) == 1
    winner = candidates[0] if singleton else best_scored(evidence)
    if not singleton:
        logger.debug(
            "non-singleton termination: %d candidates remain after %d "
            "rounds; declaring the highest-scoring one (%d)",
            len(candidates),
            len(records),
            winner,
        )
    if tracer.enabled:
        tracer.emit(
            RunFinished(
                winner=int(winner),
                rounds_run=len(records),
                total_questions=total_questions,
                total_latency=total_latency,
                singleton=singleton,
            ),
            sim_time=total_latency,
        )
        close_span(tracer, run_span, end=total_latency)
    return MaxRunResult(
        winner=winner,
        true_max=winner if true_max is None else true_max,
        singleton_termination=singleton,
        total_latency=total_latency,
        total_questions=total_questions,
        records=tuple(records),
        allocation=allocation,
    )
