"""Stateful (model-based) testing of the MaxSession state machine.

Hypothesis drives random but legal interaction sequences — asking for the
pending batch, answering all of it or a random part of it (always
consistently with a hidden order), occasionally re-reading the pending
batch — and checks the session's invariants after every step.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.latency import LinearLatency
from repro.core.tdp import TDPAllocator
from repro.crowd.ground_truth import GroundTruth
from repro.engine.session import MaxSession
from repro.selection.tournament import TournamentFormation

LATENCY = LinearLatency(100, 1.0)


class SessionMachine(RuleBasedStateMachine):
    @initialize(
        n_elements=st.integers(2, 25),
        budget_factor=st.floats(1.0, 5.0),
        seed=st.integers(0, 10_000),
    )
    def start(self, n_elements, budget_factor, seed):
        rng = np.random.default_rng(seed)
        self.truth = GroundTruth.random(n_elements, rng)
        self.n_elements = n_elements
        budget = max(n_elements - 1, int(budget_factor * n_elements))
        self.budget = budget
        allocation = TDPAllocator().allocate(n_elements, budget, LATENCY)
        self.session = MaxSession(
            allocation, TournamentFormation(), n_elements, rng
        )
        self.asked_total = 0

    @precondition(lambda self: not self.session.done)
    @rule()
    def read_pending(self):
        batch = self._pending()
        assert batch, "a pending round must have questions"
        assert self._pending() == batch  # stable

    def _pending(self):
        return list(map(tuple, self.session.pending_questions().tolist()))

    def _submit(self, questions):
        round_size = len(self.session.pending)
        self.session.submit([self.truth.answer(a, b) for a, b in questions])
        if not self.session.awaiting_answers:
            self.asked_total += round_size

    @precondition(lambda self: not self.session.done)
    @rule()
    def answer_pending(self):
        self._submit(self.session.pending_questions())

    @precondition(lambda self: not self.session.done)
    @rule(data=st.data())
    def answer_part_of_pending(self, data):
        batch = self._pending()
        part = data.draw(
            st.lists(
                st.sampled_from(batch), min_size=1, max_size=len(batch),
                unique=True,
            )
        )
        self._submit(part)
        if len(part) < len(batch):
            rest = [q for q in batch if q not in part]
            assert self._pending() == rest

    @precondition(lambda self: self.session.done)
    @rule()
    def poke_finished_session(self):
        """A finished session keeps answering queries and rejects driving."""
        import pytest

        from repro.engine.session import SessionStateError

        assert 0 <= self.session.winner < self.n_elements
        with pytest.raises(SessionStateError):
            self.session.pending_questions()

    @invariant()
    def candidates_contain_the_true_max(self):
        if hasattr(self, "session"):
            assert self.truth.max_element in self.session.candidates

    @invariant()
    def candidates_follow_the_evidence(self):
        if hasattr(self, "session"):
            assert self.session.candidates == tuple(
                sorted(self.session.evidence.remaining_candidates())
            )

    @invariant()
    def budget_never_exceeded(self):
        if hasattr(self, "session"):
            assert self.session.questions_posted <= self.budget
            assert self.session.questions_posted == self.asked_total

    @invariant()
    def winner_is_correct_once_singleton(self):
        if hasattr(self, "session") and self.session.done:
            if self.session.singleton_termination:
                assert self.session.winner == self.truth.max_element


SessionMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestSessionStateMachine = SessionMachine.TestCase
