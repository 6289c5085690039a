"""Opening many sessions' Tournament rounds in one ``open_rounds`` pass,
against one ``TournamentFormation.select`` call per session on the same
stream.

Every session here draws from one shared generator, as a scheduler's do.
Before each :func:`open_rounds` pass the reference replays the pass on a
copy of the stream: for each closed, unfinished session in order, one
``select`` on that session's round.  The pass must open exactly those
rounds, leave open rounds alone, and leave the stream where the
reference left its copy.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation
from repro.core.questions import fewest_tournaments_within, tournament_questions
from repro.crowd.ground_truth import GroundTruth
from repro.engine.session import MaxSession, open_rounds, submit_rounds
from repro.selection.base import SelectionContext
from repro.selection.tournament import TournamentFormation


def context(session, rng):
    """What the selector sees for *session*'s next round."""
    return SelectionContext(
        budget=session.allocation.round_budgets[session.round_index],
        candidates=session.candidates,
        evidence=session.evidence,
        round_index=session.round_index,
        total_rounds=session.allocation.rounds,
        rng=rng,
    )


def reference_rounds(sessions, rng):
    """Each closed, unfinished session's round, one ``select`` each."""
    return {
        id(session): session.selector.select(context(session, rng))
        for session in sessions
        if not session.awaiting_answers and not session.done
    }


def restored(session):
    """*session* rebuilt from its checkpointable state, on the same stream."""
    return MaxSession.restore(
        session.allocation, session.selector, len(session.evidence),
        session.rng,
        evidence=copy.deepcopy(session.evidence),
        round_index=session.round_index,
        questions_posted=session.questions_posted,
        rounds_executed=session.rounds_executed,
        pending=session.pending,
    )


def true_rows(truth, questions):
    answers = [truth.answer(a, b) for a, b in questions.tolist()]
    return np.array(
        [(answer.winner, answer.loser) for answer in answers], np.int64
    ).reshape(-1, 2)


def leftover_spent(session):
    """Whether the open round holds extras beyond its tournaments."""
    size = len(session.candidates)
    budget = session.allocation.round_budgets[session.round_index]
    cliques = tournament_questions(size, fewest_tournaments_within(size, budget))
    return len(session.pending) > cliques


def drive(seed, shapes, spend_leftover):
    """Open, half-answer and checkpoint the sessions of *shapes* until all
    are done, checking every pass; returns which cases came up."""
    rng = np.random.default_rng(seed)
    pick = np.random.default_rng((seed, 1))
    selector = TournamentFormation(spend_leftover=spend_leftover)
    sessions = [
        MaxSession(Allocation(tuple(budgets)), selector, n, rng)
        for n, budgets in shapes
    ]
    truths = [
        GroundTruth.random(n, np.random.default_rng((seed, i)))
        for i, (n, _) in enumerate(shapes)
    ]
    seen = dict.fromkeys(("extras", "skipped", "restored", "subset"), False)
    while not all(session.done for session in sessions):
        stream = copy.deepcopy(rng)
        expected = reference_rounds(sessions, stream)
        open_already = {s: s.pending for s in sessions if s.awaiting_answers}
        open_rounds(sessions)
        assert rng.bit_generator.state == stream.bit_generator.state
        for session in sessions:
            if session in open_already:
                assert session.pending == open_already[session]
            elif id(session) in expected:
                assert np.array_equal(session.pending, expected[id(session)])
                seen["extras"] |= leftover_spent(session)
                seen["subset"] |= len(session.candidates) < len(session.evidence)
            else:
                assert session.done
        # Answer a random part of every open round; some stay half answered.
        live = [i for i, s in enumerate(sessions) if s.awaiting_answers]
        rows = []
        for i in live:
            pending = sessions[i].pending_questions()
            rows.append(true_rows(truths[i], pending[pick.random(len(pending)) < 0.7]))
        indices = [s.round_index for s in sessions]
        submit_rounds(
            [sessions[i] for i in live],
            np.concatenate(rows) if rows else np.empty((0, 2), np.int64),
            [len(r) for r in rows],
        )
        seen["skipped"] |= any(
            s.round_index > index + 1 for s, index in zip(sessions, indices)
        )
        # Checkpoint some sessions mid-round and go on with the copies.
        for i, session in enumerate(sessions):
            if session.awaiting_answers and pick.random() < 0.5:
                sessions[i] = restored(session)
                seen["restored"] = True
    return seen


@st.composite
def session_shapes(draw):
    """``(n, round budgets)`` per session; budgets include zero rounds."""
    shapes = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(2, 24))
        budgets = draw(
            st.lists(
                st.one_of(st.just(0), st.integers(1, n * (n - 1) // 2)),
                min_size=1,
                max_size=4,
            )
        )
        shapes.append((n, budgets))
    return shapes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shapes=session_shapes(), spend=st.booleans())
def test_one_pass_draws_as_one_select_per_session(seed, shapes, spend):
    drive(seed, shapes, spend)


def test_the_cases_come_up():
    """Extras, zero-budget rounds, candidate subsets and mid-round
    restores all occur in these fixed drives."""
    seen = dict.fromkeys(("extras", "skipped", "restored", "subset"), False)
    for seed in range(6):
        shapes = [(12, [20, 0, 9]), (20, [0, 45, 7]), (7, [5, 3]), (30, [60, 0, 0, 40])]
        for case, hit in drive(seed, shapes, spend_leftover=True).items():
            seen[case] |= hit
    assert all(seen.values()), seen
