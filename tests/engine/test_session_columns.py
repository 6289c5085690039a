"""A session's candidates and evidence as columns through the tick passes.

:class:`MaxSession` keeps its candidates as one ascending int64 array:
:func:`open_rounds` hands it to the selector as it is, Tournament
formation deals a tick's rounds from those arrays with one concatenate,
and :func:`submit_rounds` filters them with one mask.  It keeps its
answers as directed-key slices and builds its evidence graph only when
the graph is read.  The public surface is unchanged:
:attr:`MaxSession.candidates` is a tuple of ints, :attr:`MaxSession.winner`
an int, and :attr:`MaxSession.evidence` the graph of every answer.  The
reference here keeps every session's candidates as the tuple the
evidence graph implies.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation
from repro.crowd.ground_truth import GroundTruth
from repro.core.latency import LinearLatency
from repro.engine.session import MaxSession, open_rounds, submit_rounds
from repro.errors import InconsistentAnswersError
from repro.obs.profiling import profiled
from repro.selection.base import QuestionSelector
from repro.selection.ct import ct25
from repro.selection.tournament import TournamentFormation

SELECTORS = (TournamentFormation(), ct25())


def true_rows(truth, questions):
    winners = truth.winners(questions)
    return np.column_stack((winners, questions.sum(axis=1) - winners))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(
        st.tuples(st.integers(2, 16), st.integers(1, 40), st.integers(0, 1)),
        min_size=1,
        max_size=6,
    ),
)
def test_candidates_stay_the_evidence_survivors(seed, shapes):
    """Over mixed selectors, partial answers and several ticks, every
    session's candidates are the ascending survivors of its evidence, as
    Python ints, and its open round's size is its pending count."""
    rng = np.random.default_rng(seed)
    pick = np.random.default_rng((seed, 1))
    sessions = [
        MaxSession(
            Allocation((min(budget, n * (n - 1) // 2), n)), SELECTORS[kind], n, rng
        )
        for n, budget, kind in shapes
    ]
    truths = [
        GroundTruth.random(n, np.random.default_rng((seed, i)))
        for i, (n, _, _) in enumerate(shapes)
    ]
    while not all(session.done for session in sessions):
        open_rounds(sessions)
        live = [i for i, s in enumerate(sessions) if s.awaiting_answers]
        rows = []
        for i in live:
            pending = sessions[i].pending_questions()
            rows.append(true_rows(truths[i], pending[pick.random(len(pending)) < 0.6]))
        submit_rounds(
            [sessions[i] for i in live],
            np.concatenate(rows) if rows else np.empty((0, 2), np.int64),
            [len(r) for r in rows],
        )
        for session in sessions:
            candidates = session.candidates
            assert candidates == tuple(sorted(session.evidence.remaining_candidates()))
            assert all(type(element) is int for element in candidates)
            assert session.open_round_size == len(session.pending or ())
    for session, truth in zip(sessions, truths):
        assert type(session.winner) is int
        if session.singleton_termination:
            assert session.winner == truth.max_element


def test_tournament_deals_array_and_tuple_candidates_alike():
    """The same draws from a tuple and from an array of the same
    candidates deal the same round."""
    selector = TournamentFormation()
    candidates = (1, 4, 5, 8, 9, 11, 13)
    rounds = []
    for given_as in (tuple, np.array):
        rng = np.random.default_rng(3)
        drawn = selector.draw(9, given_as(candidates), None, 0, 2, rng)
        rounds.append(selector.deal([drawn])[0])
    assert np.array_equal(*rounds)


def test_other_selectors_see_a_tuple_context():
    """The default draw builds its context from array candidates as a
    tuple of ints, as a single selection does."""
    seen = []

    class Recording(QuestionSelector):
        def select(self, ctx):
            seen.append(ctx.candidates)
            return np.array([[ctx.candidates[0], ctx.candidates[1]]])

    Recording().draw(1, np.array([2, 3, 7]), None, 0, 1, np.random.default_rng(0))
    assert seen == [(2, 3, 7)]
    assert all(type(element) is int for element in seen[0])


class Reasks(QuestionSelector):
    """Breaks the candidates-only contract: asks ``(0, 1)`` every round."""

    def select(self, ctx):
        return np.array([[0, 1]])


def reasking_session():
    """A session whose second round re-asks its first round's pair, after
    element 1 beat element 0: a stale round."""
    session = MaxSession(Allocation((1, 1)), Reasks(), 3, np.random.default_rng(0))
    session.pending_questions()
    session.submit(np.array([[1, 0]]))
    assert session.candidates == (1, 2)
    session.pending_questions()
    return session


def test_a_stale_round_repeats_an_answer_idempotently():
    session = reasking_session()
    session.submit(np.array([[1, 0]]))
    assert session.evidence.n_answers == 1
    assert session.rounds_executed == 2


def test_a_contradiction_leaves_earlier_sessions_recorded():
    """The stale round's opposite answer raises; the session before it in
    the same call keeps its rows, and the stale session records nothing."""
    good = MaxSession(
        Allocation((3,)), TournamentFormation(), 3, np.random.default_rng(1)
    )
    bad = reasking_session()
    questions = good.pending_questions()
    rows = np.vstack([questions[:, ::-1], [[0, 1]]])
    with pytest.raises(InconsistentAnswersError):
        submit_rounds([good, bad], rows, [len(questions), 1])
    assert good.evidence.n_answers == len(questions)
    assert good.done
    assert bad.evidence.n_answers == 1
    assert bad.candidates == (1, 2) and bad.awaiting_answers


def test_mid_round_restore_adopts_the_evidence():
    """A restored session's graph is the checkpoint's, and answers after
    the restore fold into it."""
    rng = np.random.default_rng(4)
    session = MaxSession(Allocation((6, 3)), TournamentFormation(), 6, rng)
    truth = GroundTruth.random(6, np.random.default_rng(5))
    pending = session.pending_questions()
    session.submit(true_rows(truth, pending[:2]))
    restored = MaxSession.restore(
        session.allocation, session.selector, 6, rng,
        evidence=session.evidence, round_index=0,
        questions_posted=0, rounds_executed=0, pending=session.pending,
    )
    assert restored.evidence is session.evidence
    restored.submit(true_rows(truth, restored.pending_questions()))
    assert restored.evidence.n_answers == len(pending)
    assert restored.candidates == tuple(
        sorted(restored.evidence.remaining_candidates())
    )


def test_singleton_tournament_queries_build_no_graph():
    """On an error-free Tournament run only the exits with several
    candidates build an evidence graph."""
    from repro.service import MaxScheduler, QuerySpec

    specs = [QuerySpec(query_id=i, n_elements=12, budget=70) for i in range(12)]
    scheduler = MaxScheduler(specs, LinearLatency(239, 0.06), seed=0)
    with profiled(publish=False) as profiler:
        report = scheduler.run()
    scored = sum(not result.singleton for result in report.results)
    assert report.accuracy == 1.0
    assert profiler.snapshot().get("session.graphs_built", 0) == scored
