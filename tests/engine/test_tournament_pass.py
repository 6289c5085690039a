"""Opening many sessions' rounds in one ``open_rounds`` pass, against one
per-round selection per session on the same stream.

Every session here draws from one shared generator, as a scheduler's do,
and Tournament sessions are mixed with CT25 and SPREAD ones.  Before each
:func:`open_rounds` pass the reference replays the pass on a copy of the
stream: for each closed, unfinished session in order, one selection of
that session's round — the per-round Tournament selection of
:mod:`tests.selection.tournament_reference` for Tournament sessions,
``select_round`` for the others.  The pass must open exactly those
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
from repro.graphs.tournaments import CACHED_TEMPLATE_ROWS
from repro.selection.base import SelectionContext, select_round
from repro.selection.ct import ct25
from repro.selection.spread import Spread
from repro.selection.tournament import TournamentFormation
from tests.selection.tournament_reference import reference_select

#: One shared instance per kind, as a scheduler shares its selector, so a
#: pass deals each kind's rounds together while the draws interleave.
SELECTORS = {
    "tournament": TournamentFormation(),
    "unspent": TournamentFormation(spend_leftover=False),
    "ct25": ct25(),
    "spread": Spread(),
}


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


def reference_round(session, rng):
    """*session*'s next round, selected one round at a time."""
    selector = session.selector
    if isinstance(selector, TournamentFormation):
        return reference_select(context(session, rng), selector.spend_leftover)
    return select_round(selector, context(session, rng))


def reference_rounds(sessions, rng):
    """Each closed, unfinished session's round, in session order."""
    return {
        id(session): reference_round(session, rng)
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
    winners = truth.winners(questions)
    return np.column_stack((winners, questions.sum(axis=1) - winners))


def cliques(session):
    size = len(session.candidates)
    budget = session.allocation.round_budgets[session.round_index]
    return tournament_questions(size, fewest_tournaments_within(size, budget))


def drive(seed, shapes):
    """Open, half-answer and checkpoint the sessions of *shapes* until all
    are done, checking every pass; returns which cases came up."""
    rng = np.random.default_rng(seed)
    pick = np.random.default_rng((seed, 1))
    sessions = [
        MaxSession(Allocation(tuple(budgets)), SELECTORS[kind], n, rng)
        for n, budgets, kind in shapes
    ]
    truths = [
        GroundTruth.random(n, np.random.default_rng((seed, i)))
        for i, (n, _, _) in enumerate(shapes)
    ]
    seen = dict.fromkeys(
        ("extras", "skipped", "restored", "subset", "mixed", "big"), False
    )
    while not all(session.done for session in sessions):
        stream = copy.deepcopy(rng)
        expected = reference_rounds(sessions, stream)
        open_already = {s: s.pending for s in sessions if s.awaiting_answers}
        open_rounds(sessions)
        assert rng.bit_generator.state == stream.bit_generator.state
        kinds = set()
        for session in sessions:
            if session in open_already:
                assert session.pending == open_already[session]
            elif id(session) in expected:
                assert np.array_equal(session.pending, expected[id(session)])
                kinds.add(type(session.selector))
                if isinstance(session.selector, TournamentFormation):
                    size = cliques(session)
                    seen["extras"] |= len(session.pending) > size
                    seen["big"] |= size > CACHED_TEMPLATE_ROWS
                seen["subset"] |= len(session.candidates) < len(session.evidence)
            else:
                assert session.done
        seen["mixed"] |= len(kinds) > 1
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
    """``(n, round budgets, selector kind)`` per session; budgets include
    zero rounds, and a few collections are large enough for templates
    over ``CACHED_TEMPLATE_ROWS`` questions."""
    shapes = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.one_of(st.integers(2, 24), st.sampled_from([50, 70])))
        budgets = draw(
            st.lists(
                st.one_of(st.just(0), st.integers(1, n * (n - 1) // 2)),
                min_size=1,
                max_size=4,
            )
        )
        shapes.append((n, budgets, draw(st.sampled_from(sorted(SELECTORS)))))
    return shapes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shapes=session_shapes())
def test_one_pass_draws_as_one_selection_per_session(seed, shapes):
    drive(seed, shapes)


def test_the_cases_come_up():
    """Extras, zero-budget rounds, candidate subsets, mid-round restores,
    mixed selectors in one pass and uncached templates all occur in these
    fixed drives."""
    seen = dict.fromkeys(
        ("extras", "skipped", "restored", "subset", "mixed", "big"), False
    )
    shapes = [
        (12, [20, 0, 9], "tournament"),
        (20, [0, 45, 7], "ct25"),
        (7, [5, 3], "tournament"),
        (16, [30, 20], "spread"),
        (30, [60, 0, 0, 40], "unspent"),
        (70, [1200, 40], "tournament"),
    ]
    for seed in range(6):
        for case, hit in drive(seed, shapes).items():
            seen[case] |= hit
    assert all(seen.values()), seen
