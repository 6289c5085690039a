"""Equivalence and property tests for columnar crowd rounds.

The Reliable Worker Layer tallies votes with ``bincount``, takes the
majority as an array expression and checks acyclicity by peeling edges.
These tests drive it with scripted vote columns and compare it with a
plain-Python reference kept here: a dict tally, a per-question majority
and :meth:`AnswerGraph.validate_acyclic`.  The platform's columns are
checked against the ground truth and against themselves under a seed.
"""

from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.faults import FaultyPlatform, fault_profile_by_name
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import (
    BatchResult,
    Platform,
    PlatformStats,
    SimulatedPlatform,
    as_pairs,
)
from repro.crowd.rwl import ReliableWorkerLayer
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import InconsistentAnswersError, PlatformOutageError
from repro.graphs.answer_graph import AnswerGraph
from repro.types import Answer


class ScriptedPlatform(Platform):
    """Answers posted copies from pre-drawn vote columns.

    Copy *i* of a batch, in posting order, is lost when ``lost[i]``;
    otherwise it names its question's ``lo`` side when ``lo_side[i]``
    and is submitted a second time when ``duplicate[i]``.  Duplicates are
    appended after the originals, as the fault layer does.
    """

    def __init__(self, lost, lo_side, duplicate):
        self.lost = np.asarray(lost, dtype=bool)
        self.lo_side = np.asarray(lo_side, dtype=bool)
        self.duplicate = np.asarray(duplicate, dtype=bool)
        self.stats = PlatformStats()
        #: (question, winner) of every answer returned, in order.
        self.raw = []

    def post_batch(self, questions):
        pairs = np.sort(as_pairs(questions), axis=1)
        n = len(pairs)
        rows = np.flatnonzero(~self.lost[:n])
        rows = np.concatenate((rows, rows[self.duplicate[rows]]))
        answered = pairs[rows]
        winners = np.where(self.lo_side[rows], answered[:, 0], answered[:, 1])
        self.raw = list(zip(map(tuple, answered.tolist()), winners.tolist()))
        self.stats.batches_posted += 1
        self.stats.questions_posted += n
        return BatchResult(
            questions=answered,
            winners=winners,
            submit_times=np.ones(len(rows)),
            worker_ids=np.zeros(len(rows), dtype=np.int64),
            completion_time=1.0 if len(rows) else 0.0,
            n_workers=1 if len(rows) else 0,
            rows=rows,
        )


def reference_tally(raw):
    """Dict tally of raw answers: ``(votes, majority, tied questions)``."""
    votes = defaultdict(Counter)
    for question, winner in raw:
        votes[question][winner] += 1
    majority, tied = {}, set()
    for (lo, hi), count in votes.items():
        if count[lo] == count[hi]:
            tied.add((lo, hi))
        else:
            majority[(lo, hi)] = lo if count[lo] > count[hi] else hi
    return votes, majority, tied


def reference_acyclic(n_elements, winners):
    """:meth:`AnswerGraph.validate_acyclic` over ``{question: winner}``."""
    graph = AnswerGraph(range(n_elements))
    graph.record_all(
        Answer(winner=w, loser=lo + hi - w) for (lo, hi), w in winners.items()
    )
    try:
        graph.validate_acyclic()
    except InconsistentAnswersError:
        return False
    return True


def result_winners(result):
    return dict(zip(map(tuple, result.questions.tolist()), result.winners.tolist()))


@st.composite
def vote_columns(draw):
    n_elements = draw(st.integers(3, 7))
    all_pairs = [(a, b) for a in range(n_elements) for b in range(a + 1, n_elements)]
    questions = draw(st.lists(st.sampled_from(all_pairs), min_size=1, unique=True))
    repetition = draw(st.integers(1, 5))
    n_copies = len(questions) * repetition
    column = st.lists(st.booleans(), min_size=n_copies, max_size=n_copies)
    lost = draw(
        st.lists(
            st.sampled_from([False, False, False, True]),
            min_size=n_copies,
            max_size=n_copies,
        )
    )
    flip_order = draw(st.booleans())
    asked = [(b, a) for a, b in questions] if flip_order else questions
    return n_elements, asked, repetition, lost, draw(column), draw(column)


class TestRWLMatchesTheReference:
    @settings(max_examples=300, deadline=None)
    @given(columns=vote_columns(), seed=st.integers(0, 2**16))
    def test_tally_majority_and_peel(self, columns, seed):
        n_elements, asked, repetition, lost, lo_side, duplicate = columns
        platform = ScriptedPlatform(lost, lo_side, duplicate)
        rwl = ReliableWorkerLayer(
            platform, np.random.default_rng(seed), repetition=repetition
        )
        result = rwl.ask(asked)
        votes, majority, tied = reference_tally(platform.raw)
        distinct = [tuple(sorted(q)) for q in asked]
        winners = result_winners(result)

        assert list(winners) == [q for q in distinct if q in votes]
        assert result.unanswered.tolist() == [
            list(q) for q in distinct if q not in votes
        ]
        assert reference_acyclic(n_elements, winners)
        repaired = result.majority_flips > 0
        if not repaired:
            assert {q: winners[q] for q in majority} == majority
        if not tied:
            assert repaired == (not reference_acyclic(n_elements, majority))
            assert result.majority_flips == sum(
                winners[q] != w for q, w in majority.items()
            )

    def test_unanimous_votes_forming_a_cycle_are_repaired(self):
        """Three unanimous wrong votes on (0, 2) close 0 > 1 > 2 > 0.

        No vote disagrees with another, yet the majority answers form a
        cycle: the check has to run on every round, not only on rounds
        with a split vote.
        """
        questions = [(0, 1), (1, 2), (0, 2)]
        # Copies are posted question by question, three of each.
        lo_side = [True] * 3 + [True] * 3 + [False] * 3
        platform = ScriptedPlatform([False] * 9, lo_side, [False] * 9)
        rwl = ReliableWorkerLayer(
            platform, np.random.default_rng(0), repetition=3
        )
        result = rwl.ask(questions)
        votes, majority, tied = reference_tally(platform.raw)
        assert not tied
        assert all(len(count) == 1 for count in votes.values())  # unanimous
        assert not reference_acyclic(3, majority)
        assert result.majority_flips >= 1
        assert reference_acyclic(3, result_winners(result))

    def test_acyclic_majority_passes_through_untouched(self):
        platform = ScriptedPlatform([False] * 3, [True] * 3, [False] * 3)
        rwl = ReliableWorkerLayer(platform, np.random.default_rng(0))
        result = rwl.ask([(0, 1), (1, 2), (0, 2)])
        assert result.majority_flips == 0
        assert result_winners(result) == {(0, 1): 0, (1, 2): 1, (0, 2): 0}


def _platform(seed, n_elements=40, **config):
    truth = GroundTruth.random(n_elements, np.random.default_rng(seed + 1))
    platform = SimulatedPlatform(
        truth,
        np.random.default_rng(seed),
        config=WorkerPoolConfig(**config),
    )
    return platform, truth


class TestPlatformColumns:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(1, 300),
        attention_span=st.sampled_from([None, 1, 3]),
        worker_speed_sigma=st.sampled_from([0.0, 0.8]),
    )
    def test_error_free_columns_are_consistent(
        self, seed, size, attention_span, worker_speed_sigma
    ):
        platform, truth = _platform(
            seed,
            attention_span=attention_span,
            worker_speed_sigma=worker_speed_sigma,
        )
        rng = np.random.default_rng(seed)
        pairs = np.array([rng.choice(40, size=2, replace=False) for _ in range(size)])
        result = platform.post_batch(pairs)
        np.testing.assert_array_equal(result.questions, pairs)
        assert result.winners.tolist() == [
            truth.better(int(a), int(b)) for a, b in pairs
        ]
        assert result.completion_time == result.submit_times.max()
        assert result.n_workers == len(np.unique(result.worker_ids))

    @pytest.mark.parametrize("profile", [None, "severe", "lossy"])
    def test_same_seed_gives_identical_columns(self, profile):
        def run():
            platform, _ = _platform(5, worker_speed_sigma=0.5, attention_span=4)
            if profile is not None:
                platform = FaultyPlatform(
                    platform,
                    fault_profile_by_name(profile),
                    np.random.default_rng(11),
                )
            batches = []
            for size in (30, 1, 200, 57):
                try:
                    batches.append(platform.post_batch([(0, 1)] * size))
                except PlatformOutageError:
                    batches.append("outage")
            return batches

        first, second = run(), run()
        assert first == second
        assert all(
            isinstance(b, str) or b.winners.dtype == np.int64 for b in first
        )
