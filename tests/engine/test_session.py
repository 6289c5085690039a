"""Tests for the caller-driven MaxSession."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Allocation
from repro.core.latency import LinearLatency
from repro.core.tdp import TDPAllocator
from repro.crowd.ground_truth import GroundTruth
from repro.engine.max_engine import MaxEngine, OracleAnswerSource
from repro.engine.session import (
    MaxSession,
    SessionStateError,
    open_rounds,
    submit_rounds,
)
from repro.errors import InvalidParameterError
from repro.persistence import (
    answer_graph_to_dict,
    session_from_dict,
    session_to_dict,
)
from repro.selection.tournament import TournamentFormation
from repro.types import Answer

LATENCY = LinearLatency(239, 0.06)


def answers_to(truth, questions):
    return [truth.answer(a, b) for a, b in questions]


def rows_to(truth, questions):
    """The ``(k, 2)`` winner/loser array of *questions*' true answers."""
    answers = answers_to(truth, questions)
    return np.array(
        [(answer.winner, answer.loser) for answer in answers], np.int64
    ).reshape(-1, 2)


def drive_to_completion(session, truth):
    """Answer every pending batch from the ground truth."""
    while not session.done:
        session.submit(answers_to(truth, session.pending_questions()))
    return session


def counters(session):
    return (
        session.round_index,
        session.questions_posted,
        session.rounds_executed,
        session.done,
    )


class TestHappyPath:
    def test_finds_the_max(self):
        rng = np.random.default_rng(0)
        truth = GroundTruth.random(40, rng)
        allocation = TDPAllocator().allocate(40, 200, LATENCY)
        session = MaxSession(allocation, TournamentFormation(), 40, rng)
        drive_to_completion(session, truth)
        assert session.singleton_termination
        assert session.winner == truth.max_element

    def test_matches_engine_run(self):
        """Driving a session yields the same winner and question count as
        the batch engine under the same seed."""
        allocation = TDPAllocator().allocate(30, 150, LATENCY)
        rng_engine = np.random.default_rng(3)
        truth_engine = GroundTruth.random(30, rng_engine)
        engine_result = MaxEngine(
            TournamentFormation(),
            OracleAnswerSource(truth_engine, LATENCY),
            rng_engine,
        ).run(truth_engine, allocation)

        rng_session = np.random.default_rng(3)
        truth_session = GroundTruth.random(30, rng_session)
        session = MaxSession(
            allocation, TournamentFormation(), 30, rng_session
        )
        drive_to_completion(session, truth_session)
        assert session.winner == engine_result.winner
        assert session.questions_posted == engine_result.total_questions
        assert session.rounds_executed == engine_result.rounds_run

    def test_pending_is_stable_until_submit(self):
        rng = np.random.default_rng(1)
        allocation = Allocation.from_element_sequence((10, 2, 1))
        session = MaxSession(allocation, TournamentFormation(), 10, rng)
        first = session.pending_questions()
        second = session.pending_questions()
        assert np.array_equal(first, second)

    def test_early_singleton_finishes_session(self):
        """A lavish first round resolves everything; the session must be
        done without touching round 2."""
        rng = np.random.default_rng(2)
        truth = GroundTruth.random(8, rng)
        allocation = Allocation(round_budgets=(28, 10))
        session = MaxSession(allocation, TournamentFormation(), 8, rng)
        session.submit(answers_to(truth, session.pending_questions()))
        assert session.done
        assert session.rounds_executed == 1
        assert session.winner == truth.max_element

    def test_zero_budget_rounds_skipped(self):
        rng = np.random.default_rng(4)
        truth = GroundTruth.random(6, rng)
        allocation = Allocation(round_budgets=(0, 0, 15))
        session = MaxSession(allocation, TournamentFormation(), 6, rng)
        assert session.round_index == 2
        drive_to_completion(session, truth)
        assert session.winner == truth.max_element


class TestMisuse:
    def make_session(self):
        rng = np.random.default_rng(5)
        allocation = Allocation.from_element_sequence((6, 2, 1))
        return MaxSession(allocation, TournamentFormation(), 6, rng)

    def test_submit_before_asking(self):
        session = self.make_session()
        with pytest.raises(SessionStateError):
            session.submit([])

    def test_partial_answers_keep_the_round_open(self):
        session = self.make_session()
        truth = GroundTruth.identity(6)
        batch = session.pending_questions()
        assert len(batch) > 1
        session.submit([truth.answer(*batch[0])])
        assert session.awaiting_answers
        assert session.round_index == 0
        assert session.questions_posted == 0
        assert session.evidence.n_answers == 1
        assert np.array_equal(session.pending_questions(), batch[1:])
        assert session.pending == list(map(tuple, batch.tolist()))
        session.submit(answers_to(truth, batch[1:]))
        assert not session.awaiting_answers
        assert session.questions_posted == len(batch)

    @pytest.mark.parametrize("repeat", ["within_one_submit", "in_a_later_submit"])
    def test_repeated_answers_rejected_and_evidence_untouched(self, repeat):
        session = self.make_session()
        truth = GroundTruth.identity(6)
        first, second = session.pending_questions()[:2]
        if repeat == "within_one_submit":
            bad = answers_to(truth, [first, second, first])
        else:
            session.submit(answers_to(truth, [first]))
            bad = answers_to(truth, [second, first])
        before = session.evidence.sorted_answers()
        candidates = session.candidates
        pending = session.pending_questions()
        with pytest.raises(SessionStateError, match="repeated or already"):
            session.submit(bad)
        assert np.array_equal(session.evidence.sorted_answers(), before)
        assert session.candidates == candidates
        assert np.array_equal(session.pending_questions(), pending)

    def test_foreign_answers_rejected(self):
        session = self.make_session()
        batch = session.pending_questions()
        wrong = [Answer(winner=a, loser=b) for a, b in batch]
        wrong[0] = Answer(winner=0, loser=1)
        if (0, 1) not in set(map(tuple, batch.tolist())):
            with pytest.raises(SessionStateError):
                session.submit(wrong)

    def test_rejected_answers_leave_evidence_untouched(self):
        session = self.make_session()
        session.pending_questions()
        with pytest.raises(SessionStateError):
            session.submit([Answer(winner=0, loser=1), Answer(winner=2, loser=3)])
        assert session.evidence.n_answers == 0
        assert session.awaiting_answers

    def test_winner_before_done(self):
        session = self.make_session()
        session.pending_questions()
        with pytest.raises(SessionStateError):
            _ = session.winner

    def test_questions_after_done(self):
        rng = np.random.default_rng(6)
        truth = GroundTruth.random(6, rng)
        allocation = Allocation.from_element_sequence((6, 1))
        session = MaxSession(allocation, TournamentFormation(), 6, rng)
        drive_to_completion(session, truth)
        with pytest.raises(SessionStateError):
            session.pending_questions()


class TestNonSingletonFinish:
    def test_budget_too_small_declares_scored_winner(self):
        rng = np.random.default_rng(7)
        truth = GroundTruth.random(10, rng)
        allocation = Allocation(round_budgets=(3,))
        session = MaxSession(allocation, TournamentFormation(), 10, rng)
        drive_to_completion(session, truth)
        assert session.done
        assert not session.singleton_termination
        assert 0 <= session.winner < 10


class TestCheckpointing:
    def test_evidence_survives_a_round_trip(self):
        """Persist mid-session evidence and verify it reloads identically."""
        from repro.persistence import answer_graph_from_dict

        rng = np.random.default_rng(8)
        truth = GroundTruth.random(12, rng)
        allocation = Allocation.from_element_sequence((12, 3, 1))
        session = MaxSession(allocation, TournamentFormation(), 12, rng)
        session.submit(answers_to(truth, session.pending_questions()))
        restored = answer_graph_from_dict(
            answer_graph_to_dict(session.evidence)
        )
        assert (
            restored.remaining_candidates()
            == session.evidence.remaining_candidates()
        )

    def test_checkpoint_resume_matches_uninterrupted_run(self, tmp_path):
        """Checkpoint after round 1, persist to disk, resume, and finish
        with exactly the winner/counters of an uninterrupted run."""
        from repro.persistence import load_json, save_json

        allocation = TDPAllocator().allocate(40, 200, LATENCY)

        rng_full = np.random.default_rng(9)
        truth_full = GroundTruth.random(40, rng_full)
        uninterrupted = MaxSession(
            allocation, TournamentFormation(), 40, rng_full
        )
        drive_to_completion(uninterrupted, truth_full)

        rng_part = np.random.default_rng(9)
        truth_part = GroundTruth.random(40, rng_part)
        session = MaxSession(allocation, TournamentFormation(), 40, rng_part)
        session.submit(answers_to(truth_part, session.pending_questions()))
        assert not session.done

        path = tmp_path / "session.json"
        save_json(session_to_dict(session), path)
        del session  # the original process is gone

        resumed = session_from_dict(load_json(path))
        assert not resumed.done
        assert resumed.rounds_executed == 1
        drive_to_completion(resumed, truth_part)

        assert resumed.winner == uninterrupted.winner
        assert resumed.singleton_termination == (
            uninterrupted.singleton_termination
        )
        assert resumed.questions_posted == uninterrupted.questions_posted
        assert resumed.rounds_executed == uninterrupted.rounds_executed

    def test_checkpoint_after_a_partial_submit_resumes_mid_round(self):
        """A live session and one restored from a mid-round checkpoint
        agree on the rest of the round and on the candidates, and finish
        with the same winner and counters."""
        allocation = TDPAllocator().allocate(40, 200, LATENCY)
        rng = np.random.default_rng(13)
        truth = GroundTruth.random(40, rng)
        live = MaxSession(allocation, TournamentFormation(), 40, rng)
        batch = live.pending_questions()
        live.submit(answers_to(truth, batch[: len(batch) // 2]))
        assert len(live.candidates) < 40

        resumed = session_from_dict(session_to_dict(live))
        assert resumed.awaiting_answers
        assert np.array_equal(resumed.pending_questions(), live.pending_questions())
        assert resumed.candidates == live.candidates
        assert counters(resumed) == counters(live)
        drive_to_completion(live, truth)
        drive_to_completion(resumed, truth)
        assert resumed.winner == live.winner
        assert counters(resumed) == counters(live)

    def test_restore_rejects_a_fully_answered_pending_round(self):
        rng = np.random.default_rng(14)
        truth = GroundTruth.random(12, rng)
        allocation = Allocation.from_element_sequence((12, 3, 1))
        session = MaxSession(allocation, TournamentFormation(), 12, rng)
        batch = session.pending_questions()
        payload = session_to_dict(session)
        session.submit(answers_to(truth, batch))
        payload["evidence"] = session_to_dict(session)["evidence"]
        with pytest.raises(InvalidParameterError, match="unanswered"):
            session_from_dict(payload)

    @pytest.mark.parametrize("field", ["pending", "evidence"])
    @pytest.mark.parametrize(
        "row",
        [[0], [0, 1, 2], [0, 1, 2, 3], [1.9, 0]],
        ids=["1-item", "3-item", "4-item", "float"],
    )
    def test_restore_rejects_rows_that_are_not_pairs(self, field, row):
        """A checkpoint row of the wrong length or with a non-integer
        element is rejected, not truncated or reshaped into other
        questions or answers."""
        rng = np.random.default_rng(15)
        allocation = Allocation.from_element_sequence((12, 3, 1))
        session = MaxSession(allocation, TournamentFormation(), 12, rng)
        session.pending_questions()  # hand the first round out
        payload = session_to_dict(session)
        if field == "pending":
            payload["pending"] = [row] + payload["pending"][1:]
        else:
            payload["evidence"]["answers"] = [row]
        with pytest.raises(InvalidParameterError, match="pairs"):
            session_from_dict(payload)

    @pytest.mark.parametrize("row", [[0, 99], [-1, 3], [99, 0], [3, 3]])
    def test_restore_rejects_pending_questions_outside_the_collection(self, row):
        """Pending questions are checked before they are looked up in the
        evidence: an unknown element is an invalid checkpoint, not a bare
        lookup error."""
        rng = np.random.default_rng(16)
        allocation = Allocation.from_element_sequence((8, 2, 1))
        session = MaxSession(allocation, TournamentFormation(), 8, rng)
        session.pending_questions()
        payload = session_to_dict(session)
        payload["pending"] = [row]
        with pytest.raises(InvalidParameterError, match="distinct pairs"):
            session_from_dict(payload)

    def test_restore_names_evidence_elements_outside_the_collection(self):
        rng = np.random.default_rng(17)
        allocation = Allocation.from_element_sequence((8, 2, 1))
        payload = session_to_dict(
            MaxSession(allocation, TournamentFormation(), 8, rng)
        )
        payload["evidence"]["elements"] = [0, 1, 2, 3, 4, 5, 6, 9]
        with pytest.raises(InvalidParameterError, match="9 is not one of them"):
            session_from_dict(payload)

    def test_restore_marks_the_answered_pending_questions(self):
        """A half-answered round resumes with exactly its unanswered
        questions pending, in selection order."""
        rng = np.random.default_rng(18)
        truth = GroundTruth.random(12, rng)
        allocation = Allocation.from_element_sequence((12, 3, 1))
        session = MaxSession(allocation, TournamentFormation(), 12, rng)
        batch = session.pending_questions()
        session.submit(answers_to(truth, batch[::3]))
        resumed = session_from_dict(session_to_dict(session))
        assert np.array_equal(
            resumed.pending_questions(), session.pending_questions()
        )
        assert resumed._n_answered == session._n_answered == len(batch[::3])

    def test_finished_session_round_trips(self):
        rng = np.random.default_rng(11)
        truth = GroundTruth.random(10, rng)
        allocation = Allocation.from_element_sequence((10, 2, 1))
        session = MaxSession(allocation, TournamentFormation(), 10, rng)
        drive_to_completion(session, truth)
        resumed = session_from_dict(session_to_dict(session))
        assert resumed.done
        assert resumed.winner == session.winner

    def test_restore_rejects_inconsistent_state(self):
        from repro.graphs.answer_graph import AnswerGraph

        rng = np.random.default_rng(12)
        allocation = Allocation.from_element_sequence((8, 2, 1))
        with pytest.raises(InvalidParameterError):
            MaxSession.restore(
                allocation,
                TournamentFormation(),
                8,
                rng,
                evidence=AnswerGraph(range(5)),  # wrong element count
                round_index=0,
                questions_posted=0,
                rounds_executed=0,
            )
        with pytest.raises(InvalidParameterError):
            MaxSession.restore(
                allocation,
                TournamentFormation(),
                8,
                rng,
                evidence=AnswerGraph(range(8)),
                round_index=99,
                questions_posted=0,
                rounds_executed=0,
            )


class TestPiecewiseRounds:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_elements=st.integers(3, 30),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    def test_split_submits_match_one_submit(self, seed, n_elements, cuts):
        """Answering a round in several submits leaves the same evidence,
        candidates, counters and next-round selection as one submit."""
        allocation = TDPAllocator().allocate(n_elements, 3 * n_elements, LATENCY)
        truth = GroundTruth.random(n_elements, np.random.default_rng(seed))
        whole = MaxSession(
            allocation, TournamentFormation(), n_elements,
            np.random.default_rng(seed),
        )
        split = MaxSession(
            allocation, TournamentFormation(), n_elements,
            np.random.default_rng(seed),
        )
        batch = whole.pending_questions()
        assert np.array_equal(split.pending_questions(), batch)
        whole.submit(answers_to(truth, batch))
        bounds = sorted({int(cut * len(batch)) for cut in cuts} | {len(batch)})
        start = 0
        for end in bounds:
            split.submit(answers_to(truth, batch[start:end]))
            start = end
        assert answer_graph_to_dict(split.evidence) == answer_graph_to_dict(
            whole.evidence
        )
        assert split.candidates == whole.candidates
        assert counters(split) == counters(whole)
        if not whole.done:
            assert np.array_equal(
                split.pending_questions(), whole.pending_questions()
            )


class TestColumnSubmits:
    def make_session(self):
        rng = np.random.default_rng(5)
        allocation = Allocation.from_element_sequence((6, 2, 1))
        return MaxSession(allocation, TournamentFormation(), 6, rng)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_elements=st.integers(3, 30),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
    )
    def test_arrays_match_answer_lists(self, seed, n_elements, cuts):
        """A session fed ``(k, 2)`` arrays and one fed ``Answer`` lists,
        split at the same points every round, agree after every submit."""
        allocation = TDPAllocator().allocate(n_elements, 3 * n_elements, LATENCY)
        truth = GroundTruth.random(n_elements, np.random.default_rng(seed))
        listed, columnar = (
            MaxSession(
                allocation, TournamentFormation(), n_elements,
                np.random.default_rng(seed),
            )
            for _ in range(2)
        )
        while not listed.done:
            batch = listed.pending_questions()
            assert np.array_equal(columnar.pending_questions(), batch)
            bounds = sorted({int(cut * len(batch)) for cut in cuts} | {len(batch)})
            start = 0
            for end in bounds:
                listed.submit(answers_to(truth, batch[start:end]))
                columnar.submit(rows_to(truth, batch[start:end]))
                start = end
                assert answer_graph_to_dict(columnar.evidence) == (
                    answer_graph_to_dict(listed.evidence)
                )
                assert columnar.candidates == listed.candidates
                assert counters(columnar) == counters(listed)
                assert columnar.pending == listed.pending
                if not listed.done:
                    assert np.array_equal(
                        columnar.pending_questions(),
                        listed.pending_questions(),
                    )
        assert columnar.done
        assert columnar.winner == listed.winner

    @pytest.mark.parametrize(
        "case", ["foreign", "repeated", "already_answered", "self_pair"]
    )
    def test_rejected_columns_leave_the_session_untouched(self, case):
        session = self.make_session()
        truth = GroundTruth.identity(6)
        batch = session.pending_questions()
        first, second = batch[:2]
        if case == "foreign":
            asked = set(map(tuple, batch.tolist()))
            foreign = next(
                (a, b) for a in range(6) for b in range(a + 1, 6)
                if (a, b) not in asked
            )
            bad = rows_to(truth, [second, foreign])
        elif case == "repeated":
            bad = rows_to(truth, [first, second, first])
        elif case == "already_answered":
            session.submit(rows_to(truth, [first]))
            bad = rows_to(truth, [second, first])
        else:
            bad = np.vstack([rows_to(truth, [second]), [[first[0], first[0]]]])
        evidence = answer_graph_to_dict(session.evidence)
        state = (session.candidates, counters(session), session.pending)
        pending = session.pending_questions()
        with pytest.raises(SessionStateError, match="repeated or already"):
            session.submit(bad)
        assert answer_graph_to_dict(session.evidence) == evidence
        assert (session.candidates, counters(session), session.pending) == state
        assert np.array_equal(session.pending_questions(), pending)

    @pytest.mark.parametrize(
        "bad",
        [np.array([0, 1]), np.array([[0.0, 1.0]]), np.zeros((1, 3), np.int64)],
        ids=["flat", "float", "three_columns"],
    )
    def test_malformed_arrays_rejected(self, bad):
        session = self.make_session()
        session.pending_questions()
        with pytest.raises(InvalidParameterError, match=r"\(k, 2\) int"):
            session.submit(bad)
        assert session.evidence.n_answers == 0


class SilentOnSomeRounds(TournamentFormation):
    """Tournaments, except that every third round (from round 1) selects
    nothing, so the session must skip it."""

    def select(self, ctx):
        if ctx.round_index % 3 == 1:
            return []
        return super().select(ctx)


def make_sessions(seed, sizes, silent):
    selector = SilentOnSomeRounds() if silent else TournamentFormation()
    return [
        MaxSession(
            TDPAllocator().allocate(n, 3 * n, LATENCY), selector, n,
            np.random.default_rng((seed, i)),
        )
        for i, n in enumerate(sizes)
    ]


def session_state(session):
    """Everything a round pass may change, for exact comparison."""
    return (
        answer_graph_to_dict(session.evidence),
        sorted(session.evidence._keys),
        session.candidates,
        counters(session),
        session.pending,
        session._answered.tolist() if session.awaiting_answers else None,
        session.rng.bit_generator.state,
    )


def checkpointed(session):
    """*session* restored from a copy of its state, mid-round included."""
    return MaxSession.restore(
        session.allocation, session.selector, len(session.evidence),
        copy.deepcopy(session.rng),
        evidence=copy.deepcopy(session.evidence),
        round_index=session.round_index,
        questions_posted=session.questions_posted,
        rounds_executed=session.rounds_executed,
        pending=session.pending,
    )


def open_each(sessions):
    """Open every session's round one ``pending_questions`` call at a time;
    selection may skip the remaining rounds and finish a session."""
    for session in sessions:
        if not session.done:
            try:
                session.pending_questions()
            except SessionStateError:
                assert session.done


def answer_some(truth, pending, pick):
    """True answers to a random subset of *pending*, in random order."""
    chosen = pending[pick.permutation(len(pending))]
    return rows_to(truth, chosen[pick.random(len(chosen)) < 0.6])


def noisy_some(pending, pick):
    """A random subset of *pending*, each answered with a random winner."""
    chosen = pending[pick.permutation(len(pending))]
    chosen = chosen[pick.random(len(chosen)) < 0.6]
    flip = pick.random(len(chosen)) < 0.5
    return np.where(flip[:, None], chosen[:, ::-1], chosen)


SIZES = st.lists(st.integers(2, 20), min_size=1, max_size=5)


class TestBatchPasses:
    """``open_rounds`` / ``submit_rounds`` over many sessions equal the
    single-session calls made one session at a time."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), sizes=SIZES, silent=st.booleans())
    def test_submit_rounds_matches_sequential_submits(self, seed, sizes, silent):
        batched, sequential = (make_sessions(seed, sizes, silent) for _ in range(2))
        truths = [
            GroundTruth.random(n, np.random.default_rng((seed, i, 1)))
            for i, n in enumerate(sizes)
        ]
        pick = np.random.default_rng(seed)
        while not all(session.done for session in sequential):
            open_each(sequential)
            open_rounds(batched)
            live = [
                i for i, session in enumerate(sequential) if session.awaiting_answers
            ]
            rows = [np.empty((0, 2), np.int64)]
            for i in live:
                rows.append(
                    answer_some(truths[i], sequential[i].pending_questions(), pick)
                )
                sequential[i].submit(rows[-1])
            submit_rounds(
                [batched[i] for i in live],
                np.concatenate(rows),
                [len(answers) for answers in rows[1:]],
            )
            for one, other in zip(batched, sequential):
                assert session_state(one) == session_state(other)
        assert [s.winner for s in batched] == [s.winner for s in sequential]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), sizes=SIZES, silent=st.booleans())
    def test_open_rounds_matches_pending_questions(self, seed, sizes, silent):
        """Including rounds skipped as empty, finished sessions and
        sessions restored mid-round from a checkpoint."""
        batched, sequential = (make_sessions(seed, sizes, silent) for _ in range(2))
        truths = [
            GroundTruth.random(n, np.random.default_rng((seed, i, 1)))
            for i, n in enumerate(sizes)
        ]
        pick = np.random.default_rng(seed)
        while not all(session.done for session in sequential):
            open_rounds(batched)
            open_each(sequential)
            for one, other in zip(batched, sequential):
                assert session_state(one) == session_state(other)
            for one, other, truth in zip(batched, sequential, truths):
                if not other.done:
                    answers = answer_some(truth, other.pending_questions(), pick)
                    one.submit(answers)
                    other.submit(answers)
            batched = [checkpointed(session) for session in batched]
            for one, other in zip(batched, sequential):
                assert session_state(one) == session_state(other)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), sizes=SIZES)
    def test_submit_rounds_drops_each_sessions_losers(self, seed, sizes):
        """Under noisy answers (random orientations, so cycles can leave a
        session with no candidates mid-round) each session keeps its
        candidates less the losers of its own rows."""
        sessions = make_sessions(seed, sizes, False)
        pick = np.random.default_rng(seed)
        while not all(session.done for session in sessions):
            open_rounds(sessions)
            live = [s for s in sessions if s.awaiting_answers]
            rows = [noisy_some(s.pending_questions(), pick) for s in live]
            expected = [
                tuple(c for c in s.candidates if c not in set(r[:, 1].tolist()))
                for s, r in zip(live, rows)
            ]
            submit_rounds(
                live,
                np.concatenate([np.empty((0, 2), np.int64)] + rows),
                [len(r) for r in rows],
            )
            assert [s.candidates for s in live] == expected

    @pytest.mark.parametrize("others", [0, 2])
    def test_a_session_without_candidates_answers_again(self, others):
        """A cycle in a 4-clique eliminates every element with two
        questions still open; the session's next answer, alone or before
        other sessions' rows, must not shift anyone's candidates."""
        emptied = MaxSession(
            Allocation(round_budgets=(6,)), TournamentFormation(), 4,
            np.random.default_rng(0),
        )
        emptied.pending_questions()
        emptied.submit(np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))
        assert emptied.candidates == () and emptied.awaiting_answers
        rest = make_sessions(5, [6] * others, False)
        open_rounds(rest)
        rows = [np.array([[0, 2]])] + [s.pending_questions()[:2] for s in rest]
        expected = [
            tuple(c for c in s.candidates if c not in set(r[:, 1].tolist()))
            for s, r in zip(rest, rows[1:])
        ]
        submit_rounds(
            [emptied, *rest], np.concatenate(rows), [len(r) for r in rows]
        )
        assert emptied.candidates == ()
        assert [s.candidates for s in rest] == expected
        emptied.submit(np.array([[1, 3]]))
        assert emptied.done

    def test_a_session_emptied_with_rounds_left_is_done(self):
        """A cyclic first round of a two-round plan eliminates every
        element: nothing is left to select, so the session is done and
        the next open pass passes it by instead of failing to select."""
        emptied = MaxSession(
            Allocation(round_budgets=(3, 1)), TournamentFormation(), 3,
            np.random.default_rng(0),
        )
        emptied.pending_questions()
        emptied.submit(np.array([[0, 1], [1, 2], [2, 0]]))
        assert emptied.candidates == () and not emptied.awaiting_answers
        assert emptied.round_index == 1 < emptied.allocation.rounds
        assert emptied.done
        open_rounds([emptied])
        assert not emptied.awaiting_answers

    def test_open_rounds_skips_open_and_finished_sessions(self):
        open_session, finished, fresh = make_sessions(3, [6, 6, 6], False)
        truth = GroundTruth.random(6, np.random.default_rng(0))
        drive_to_completion(finished, truth)
        pending = open_session.pending_questions()
        states = [session_state(s) for s in (open_session, finished)]
        open_rounds([open_session, finished, fresh])
        assert [session_state(s) for s in (open_session, finished)] == states
        assert np.array_equal(open_session.pending_questions(), pending)
        assert fresh.awaiting_answers

    @pytest.mark.parametrize(
        "case", ["foreign", "repeated", "already_answered", "self_pair"]
    )
    def test_one_bad_row_in_the_last_session_changes_no_session(self, case):
        sessions = make_sessions(7, [6, 9, 12], False)
        truths = [GroundTruth.random(n, np.random.default_rng(n)) for n in (6, 9, 12)]
        open_rounds(sessions)
        last = sessions[-1]
        first, second = last.pending_questions()[:2]
        if case == "already_answered":
            last.submit(rows_to(truths[-1], [first]))
        rows = [
            rows_to(truth, session.pending_questions())
            for truth, session in zip(truths[:-1], sessions)
        ]
        if case == "foreign":
            asked = set(map(tuple, last.pending_questions().tolist()))
            foreign = next(
                (a, b) for a in range(12) for b in range(a + 1, 12)
                if (a, b) not in asked
            )
            bad = rows_to(truths[-1], [second, foreign])
        elif case == "repeated":
            bad = rows_to(truths[-1], [first, second, first])
        elif case == "already_answered":
            bad = rows_to(truths[-1], [second, first])
        else:
            bad = np.vstack([rows_to(truths[-1], [second]), [[first[0], first[0]]]])
        rows.append(bad)
        states = [session_state(session) for session in sessions]
        with pytest.raises(SessionStateError, match="repeated or already"):
            submit_rounds(
                sessions, np.concatenate(rows), [len(answers) for answers in rows]
            )
        assert [session_state(session) for session in sessions] == states

    def test_a_session_without_an_open_round_is_rejected(self):
        opened, closed = make_sessions(2, [6, 6], False)
        rows = rows_to(GroundTruth.identity(6), opened.pending_questions())
        with pytest.raises(SessionStateError, match="no pending"):
            submit_rounds([opened, closed], rows, [len(rows), 0])
        assert opened.evidence.n_answers == 0

    def test_counts_must_cover_the_rows(self):
        sessions = make_sessions(2, [6, 6], False)
        open_rounds(sessions)
        rows = rows_to(GroundTruth.identity(6), sessions[0].pending_questions())
        with pytest.raises(InvalidParameterError, match="counts"):
            submit_rounds(sessions, rows, [len(rows) - 1, 0])

    def test_a_session_listed_twice_is_rejected(self):
        """Two slices of one session could each pass the check alone and
        repeat an answer between them."""
        session = make_sessions(2, [6], False)[0]
        first = rows_to(GroundTruth.identity(6), session.pending_questions()[:1])
        with pytest.raises(InvalidParameterError, match="twice"):
            submit_rounds([session, session], np.vstack([first, first]), [1, 1])
        assert session.evidence.n_answers == 0
