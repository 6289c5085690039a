"""Registry-wide fuzzing: every allocator x selector combination must
produce internally consistent runs.

These tests treat the whole pipeline as a black box and check only the
universal invariants (via :mod:`repro.engine.validation`) plus the
error-free guarantee: whenever a run singleton-terminates, the winner is
the true MAX.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import LinearLatency, PowerLawLatency
from repro.core.registry import allocator_by_name, available_allocators
from repro.crowd.ground_truth import GroundTruth
from repro.engine.adaptive import AdaptiveMaxEngine
from repro.engine.adversarial import AdversarialMaxEngine
from repro.engine.max_engine import MaxEngine, OracleAnswerSource
from repro.engine.topk import TopKEngine
from repro.engine.validation import (
    ContractViolation,
    validate_run,
    validate_selection,
)
from repro.graphs.answer_graph import AnswerGraph
from repro.selection.base import QuestionSelector, SelectionContext
from repro.selection.registry import available_selectors, selector_by_name


@pytest.mark.parametrize("allocator_name", available_allocators())
@pytest.mark.parametrize("selector_name", available_selectors())
def test_every_combination_runs_consistently(allocator_name, selector_name):
    n_elements, budget = 30, 200
    latency = LinearLatency(100, 0.5)
    allocator = allocator_by_name(allocator_name)
    allocation = allocator.allocate(n_elements, budget, latency)
    rng = np.random.default_rng(7)
    truth = GroundTruth.random(n_elements, rng)
    engine = MaxEngine(
        selector_by_name(selector_name),
        OracleAnswerSource(truth, latency),
        rng,
    )
    result = engine.run(truth, allocation)
    validate_run(result, n_elements, budget)
    if result.singleton_termination:
        assert result.winner == truth.max_element


@given(
    n_elements=st.integers(2, 50),
    budget_factor=st.floats(1.0, 8.0),
    seed=st.integers(0, 500),
    allocator_name=st.sampled_from(available_allocators()),
    selector_name=st.sampled_from(available_selectors()),
    delta=st.floats(0, 500),
    alpha=st.floats(0.0, 2.0),
    p=st.floats(0.5, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_random_configurations(
    n_elements, budget_factor, seed, allocator_name, selector_name, delta,
    alpha, p,
):
    budget = max(n_elements - 1, int(budget_factor * n_elements))
    latency = PowerLawLatency(delta, alpha, p) if alpha > 0 else LinearLatency(
        delta, 0.0
    )
    allocation = allocator_by_name(allocator_name).allocate(
        n_elements, budget, latency
    )
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(n_elements, rng)
    engine = MaxEngine(
        selector_by_name(selector_name),
        OracleAnswerSource(truth, latency),
        rng,
    )
    result = engine.run(truth, allocation)
    validate_run(result, n_elements, budget)
    if result.singleton_termination:
        assert result.winner == truth.max_element
    assert 0 <= result.winner < n_elements


@given(
    n_elements=st.integers(2, 40),
    budget_factor=st.floats(1.0, 6.0),
    seed=st.integers(0, 300),
    allocator_name=st.sampled_from(available_allocators()),
)
@settings(max_examples=40, deadline=None)
def test_run_latency_bounded_by_predicted(
    n_elements, budget_factor, seed, allocator_name
):
    """In oracle mode with tournament selection, a run's measured latency
    never exceeds the allocation's predicted latency: rounds post at most
    their budget (monotone L) and early stopping only removes rounds."""
    budget = max(n_elements - 1, int(budget_factor * n_elements))
    latency = LinearLatency(120, 0.8)
    allocation = allocator_by_name(allocator_name).allocate(
        n_elements, budget, latency
    )
    rng = np.random.default_rng(seed)
    truth = GroundTruth.random(n_elements, rng)
    engine = MaxEngine(
        selector_by_name("Tournament"),
        OracleAnswerSource(truth, latency),
        rng,
    )
    result = engine.run(truth, allocation)
    assert result.total_latency <= allocation.predicted_latency(latency) + 1e-9


@given(
    n_elements=st.integers(2, 40),
    budget=st.integers(0, 200),
    seed=st.integers(0, 200),
    selector_name=st.sampled_from(available_selectors()),
)
@settings(max_examples=60, deadline=None)
def test_every_selector_honours_the_contract(
    n_elements, budget, seed, selector_name
):
    context = SelectionContext(
        budget=budget,
        candidates=tuple(range(n_elements)),
        evidence=AnswerGraph(range(n_elements)),
        round_index=0,
        total_rounds=2,
        rng=np.random.default_rng(seed),
    )
    questions = selector_by_name(selector_name).select(context)
    validate_selection(context, questions)


class ContractChecked(QuestionSelector):
    """Wraps a selector and validates its output on every round."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.rounds_checked = 0
        # Round 0 of a run that starts from old evidence and a subset of
        # the elements: a top-k phase after the first.
        self.later_phase_starts = 0

    def select(self, ctx):
        questions = self.inner.select(ctx)
        validate_selection(ctx, questions)
        self.rounds_checked += 1
        if ctx.round_index == 0 and len(ctx.candidates) < len(
            ctx.evidence.elements
        ):
            self.later_phase_starts += 1
        return questions


CONTRACT_LATENCY = LinearLatency(100, 0.5)


def _static(selector, truth, rng):
    allocation = allocator_by_name("tDP").allocate(
        truth.n_elements, 60, CONTRACT_LATENCY
    )
    MaxEngine(
        selector, OracleAnswerSource(truth, CONTRACT_LATENCY), rng
    ).run(truth, allocation)


def _adaptive(selector, truth, rng):
    AdaptiveMaxEngine(
        selector, OracleAnswerSource(truth, CONTRACT_LATENCY),
        CONTRACT_LATENCY, rng,
    ).run(truth, 60)


def _topk(selector, truth, rng):
    result = TopKEngine(
        selector, OracleAnswerSource(truth, CONTRACT_LATENCY),
        CONTRACT_LATENCY, rng,
    ).run(truth, 3, 50)
    assert len(result.ranking) == 3


def _adversarial(selector, truth, rng):
    for mode in ("exact", "greedy"):
        allocation = allocator_by_name("tDP").allocate(
            truth.n_elements, 60, CONTRACT_LATENCY
        )
        AdversarialMaxEngine(
            selector, CONTRACT_LATENCY, rng, mode=mode
        ).run(truth.n_elements, allocation)


@pytest.mark.parametrize(
    "drive", [_static, _adaptive, _topk, _adversarial],
    ids=["MaxEngine", "AdaptiveMaxEngine", "TopKEngine", "AdversarialMaxEngine"],
)
@pytest.mark.parametrize("selector_name", available_selectors())
def test_every_selector_honours_the_contract_in_every_round(
    drive, selector_name
):
    """The round loop drops only each round's losers from the candidates;
    that equals "elements that never lost" only while every round's
    questions stay between current candidates.  Checked on every round of
    real runs, including top-k phases that start from old evidence and a
    subset of the elements."""
    rng = np.random.default_rng(11)
    truth = GroundTruth.random(24, rng)
    selector = ContractChecked(selector_by_name(selector_name))
    drive(selector, truth, rng)
    assert selector.rounds_checked >= 2


def test_topk_contract_runs_reach_later_phases():
    """Phases two and three select from old evidence and a subset of the
    elements (GREEDY leaves them a single candidate, so only the other
    selectors reach them)."""
    rng = np.random.default_rng(11)
    truth = GroundTruth.random(24, rng)
    selector = ContractChecked(selector_by_name("Tournament"))
    _topk(selector, truth, rng)
    assert selector.later_phase_starts == 2


def test_the_contract_check_catches_a_non_candidate_pair():
    class PairsTheFallen(QuestionSelector):
        """Tournament rounds whose last question, after round one, pairs a
        candidate with an element that already lost."""

        name = "PAIRS-THE-FALLEN"

        def select(self, ctx):
            questions = selector_by_name("Tournament").select(ctx).tolist()
            fallen = set(ctx.evidence.elements) - set(ctx.candidates)
            if fallen and questions:
                pair = tuple(sorted((min(fallen), ctx.candidates[0])))
                questions = questions[:-1] + [pair]
            return questions

    rng = np.random.default_rng(11)
    truth = GroundTruth.random(24, rng)
    with pytest.raises(ContractViolation, match="non-candidates"):
        _adaptive(ContractChecked(PairsTheFallen()), truth, rng)
