"""Micro-benchmarks of the hot building blocks.

Not tied to a paper figure; these keep an eye on the per-operation costs
the experiment sweeps are built on.
"""

from typing import List

import numpy as np
import pytest

from repro.core.questions import tournament_questions
from repro.core.registry import allocator_by_name
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer
from repro.engine.session import MaxSession, open_rounds, submit_rounds
from repro.experiments.config import estimated_latency
from repro.graphs.answer_graph import AnswerGraph
from repro.graphs.tournaments import tournament_graph
from repro.selection.registry import selector_by_name
from repro.selection.scoring import score_candidates
from repro.types import Answer


def bench_q_function_row(benchmark):
    """All Q(500, c') values — one tDP frontier row's worth of work."""

    def row():
        return [tournament_questions(500, target) for target in range(1, 500)]

    values = benchmark(row)
    assert values[0] == 124750


def bench_tournament_formation_500(benchmark):
    rng = np.random.default_rng(0)

    def build():
        return tournament_graph(rng.permutation(500), 50)

    questions = benchmark(build)
    assert len(questions) == tournament_questions(500, 50)


def round_answers(truth: GroundTruth, questions: np.ndarray) -> List[Answer]:
    """The error-free answers to *questions*, from one
    ``GroundTruth.winners`` call.

    A ``truth.answer`` call per question would cost several times the
    ingest these answers feed, and the gate times the whole bench body.
    """
    winners = truth.winners(questions)
    losers = questions.sum(axis=1) - winners
    return list(map(Answer, winners.tolist(), losers.tolist()))


def bench_answer_graph_ingest(benchmark):
    """Recording one full round of answers (2250 questions, 500 elements)."""
    rng = np.random.default_rng(1)
    truth = GroundTruth.random(500, rng)
    answers = round_answers(truth, tournament_graph(rng.permutation(500), 50))

    def ingest():
        graph = AnswerGraph(range(500))
        graph.record_all(answers)
        return graph.remaining_candidates()

    survivors = benchmark(ingest)
    assert len(survivors) == 50


def bench_scoring_function(benchmark):
    """Algorithm 2 over a 500-element answer DAG."""
    rng = np.random.default_rng(2)
    truth = GroundTruth.random(500, rng)
    graph = AnswerGraph(range(500))
    graph.record_all(
        round_answers(truth, tournament_graph(rng.permutation(500), 50))
    )

    scores = benchmark(lambda: score_candidates(graph))
    assert sum(scores.values()) == pytest.approx(1.0)


def bench_scoring_deep(benchmark):
    """Algorithm 2 over the evidence of a whole CT25 run (HE allocation,
    500 elements, budget 4000): 2390 answers, 65 levels deep.

    ``bench_scoring_function`` scores one tournament round, at most two
    levels deep, so it cannot show what the depth batches cost.
    """
    rng = np.random.default_rng(4)
    truth = GroundTruth.random(500, rng)
    allocation = allocator_by_name("HE").allocate(500, 4000, estimated_latency())
    session = MaxSession(allocation, selector_by_name("CT25"), 500, rng)
    while not session.done:
        questions = session.pending_questions()
        winners = truth.winners(questions)
        losers = questions.sum(axis=1) - winners
        session.submit(np.column_stack((winners, losers)))
    graph = session.evidence

    scores = benchmark(lambda: score_candidates(graph))
    assert graph.n_answers == 2390
    assert scores == {truth.max_element: pytest.approx(1.0)}


@pytest.mark.parametrize("rows", [21, 132, 400])
def bench_rwl_posting(benchmark, rows):
    """One posting through the RWL on a simulated platform.

    21, 132 and 400 rows are the 10th percentile, the median and the
    tail of the service's fleet sub-batches (the ``fleet_journaled``
    workload of ``benchmarks/perf``), where the fixed cost of a posting,
    not the crowd kernel, sets the time.  The rows are 4-cliques of one
    query round each, with the element ids of many queries side by side
    as a tick posts them.
    """
    rng = np.random.default_rng(3)
    cliques = tournament_graph(rng.permutation(2 * rows), 2 * rows // 4)
    questions = cliques[:rows]
    truth = GroundTruth.random(2 * rows, rng)
    rwl = ReliableWorkerLayer(SimulatedPlatform(truth, rng), rng)

    result = benchmark(lambda: rwl.ask(questions))
    assert len(result.winners) == rows
    assert result.majority_flips == 0


@pytest.mark.parametrize("sessions", [16, 64])
def bench_open_pass(benchmark, sessions):
    """One ``open_rounds`` pass over *sessions* fresh sessions on one
    stream: a tick's selection work in the service.

    The sessions have the service's burst shapes (12, 20 or 32 elements,
    budgets of 4 or 6 questions per element, tDP plans) and all draw from
    one selector stream, as a scheduler's do.  Divide the time by
    *sessions* for the cost of opening one round.
    """
    rng = np.random.default_rng(5)
    latency = estimated_latency()
    tdp = allocator_by_name("tDP")
    plans = [
        (tdp.allocate(n, int(factor * n), latency), n)
        for factor in (4.0, 6.0)
        for n in (12, 20, 32)
    ]
    selector = selector_by_name("Tournament")
    shapes = [plans[i % len(plans)] for i in range(sessions)]

    def fresh():
        return ([MaxSession(plan, selector, n, rng) for plan, n in shapes],), {}

    opened = []

    def open_pass(batch):
        open_rounds(batch)
        opened[:] = batch

    benchmark.pedantic(open_pass, setup=fresh, rounds=200)
    assert all(session.awaiting_answers for session in opened)
    assert [len(session.pending) for session in opened] == [
        plan.round_budgets[0] for plan, _ in shapes
    ]


@pytest.mark.parametrize("sessions", [16, 64])
def bench_submit_pass(benchmark, sessions):
    """One ``submit_rounds`` call that answers a shared round of
    *sessions* burst-shaped sessions: a tick's commit work in the
    service.

    The sessions are those of :func:`bench_open_pass`, opened in one
    pass before each timed call; the timed call records the true answer
    to every question of every open round, so each round resolves.
    Divide the time by *sessions* for the cost of resolving one round.
    """
    rng = np.random.default_rng(5)
    latency = estimated_latency()
    tdp = allocator_by_name("tDP")
    plans = [
        (tdp.allocate(n, int(factor * n), latency), n)
        for factor in (4.0, 6.0)
        for n in (12, 20, 32)
    ]
    selector = selector_by_name("Tournament")
    shapes = [plans[i % len(plans)] for i in range(sessions)]
    truths = {n: GroundTruth.random(n, np.random.default_rng(n)) for _, n in shapes}

    def opened():
        batch = [MaxSession(plan, selector, n, rng) for plan, n in shapes]
        open_rounds(batch)
        rows = []
        for session, (_, n) in zip(batch, shapes):
            questions = session.pending_questions()
            winners = truths[n].winners(questions)
            rows.append(
                np.column_stack((winners, questions.sum(axis=1) - winners))
            )
        return (batch, np.concatenate(rows), [len(r) for r in rows]), {}

    resolved = []

    def submit_pass(batch, rows, counts):
        submit_rounds(batch, rows, counts)
        resolved[:] = batch

    benchmark.pedantic(submit_pass, setup=opened, rounds=200)
    assert not any(session.awaiting_answers for session in resolved)
    assert [session.rounds_executed for session in resolved] == [1] * sessions
