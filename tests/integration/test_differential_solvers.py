"""Differential tests: tDP vs the memoized DP vs exhaustive search.

Three independent implementations of MinLatency exist in the repo:

* :func:`repro.core.tdp.solve_min_latency` — the paper's Pareto-frontier
  DP (Algorithm 1 as published);
* :func:`repro.core.tdp_memo.solve_min_latency_memo` — a state-memoized
  reformulation;
* :func:`repro.analysis.brute_force.brute_force_min_latency` — exhaustive
  enumeration of every tournament sequence.

They share no code beyond the latency functions, so agreement across
randomized instances is strong evidence of correctness.  Brute force is
exponential in ``c_0``, which caps the instance size at ``c_0 <= 12`` —
exactly the regime the paper uses for its own optimality checks.

The growing per-latency table behind :class:`repro.core.tdp.TDPAllocator`
is pinned the same way: random shape sequences that grow and shrink in
both ``c_0`` and the budget must plan exactly like cold solves.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.brute_force import brute_force_min_latency
from repro.core.latency import LinearLatency, PowerLawLatency
from repro.core.questions import tournament_questions
from repro.core.tdp import (
    TDPAllocator,
    TDPTable,
    solve_min_cost,
    solve_min_latency,
)
from repro.core.tdp_memo import solve_min_latency_memo
from repro.errors import InvalidParameterError

pytestmark = pytest.mark.slow


# Concave (p < 1) and affine (p == 1) latency models — the regime where
# Theorem 2's optimality argument applies.
latency_functions = st.one_of(
    st.builds(
        LinearLatency,
        delta=st.floats(0.0, 500.0, allow_nan=False),
        alpha=st.floats(0.1, 60.0, allow_nan=False),
    ),
    st.builds(
        PowerLawLatency,
        delta=st.floats(0.0, 500.0, allow_nan=False),
        alpha=st.floats(0.1, 60.0, allow_nan=False),
        p=st.sampled_from([0.5, 0.75, 1.0]),
    ),
)

instances = st.tuples(
    st.integers(2, 12),  # c0: brute force is exponential beyond this
    st.integers(0, 8),  # extra budget beyond the Theorem 1 minimum
    latency_functions,
)

# Query shapes for one growing table, in arrival order: each step may raise
# or lower c0 and the budget, so the table is extended, rebuilt at a larger
# cap and cut below its cap in every order.  Small extras keep some shapes
# inside brute-force range.
shape_sequences = st.lists(
    st.tuples(
        st.integers(1, 40),  # c0
        st.one_of(st.integers(0, 8), st.integers(0, 400)),  # extra budget
    ),
    min_size=1,
    max_size=8,
)


def _validate_sequence(plan, n_elements, budget):
    """Structural checks every solver's output must satisfy."""
    sequence = plan.sequence
    assert sequence[0] == n_elements
    assert sequence[-1] == 1
    assert all(a > b for a, b in zip(sequence, sequence[1:])), sequence
    questions = [
        tournament_questions(a, b) for a, b in zip(sequence, sequence[1:])
    ]
    assert sum(questions) == plan.questions_used
    assert plan.questions_used <= budget


@settings(max_examples=60, deadline=None)
@given(instance=instances)
def test_three_solvers_agree(instance):
    c0, extra, latency = instance
    budget = min(20, (c0 - 1) + extra)

    tdp = solve_min_latency(c0, budget, latency)
    memo = solve_min_latency_memo(c0, budget, latency)
    brute = brute_force_min_latency(c0, budget, latency)

    # All three must achieve the same optimal latency...
    assert math.isclose(
        tdp.total_latency, brute.total_latency, rel_tol=1e-9, abs_tol=1e-9
    ), (tdp.sequence, brute.sequence)
    assert math.isclose(
        memo.total_latency, brute.total_latency, rel_tol=1e-9, abs_tol=1e-9
    ), (memo.sequence, brute.sequence)

    # ...via a structurally valid tournament sequence.
    _validate_sequence(tdp, c0, budget)
    _validate_sequence(memo, c0, budget)
    _validate_sequence(brute, c0, budget)

    # The reported latency must match the sequence it claims.
    for plan in (tdp, memo, brute):
        recomputed = sum(
            latency(tournament_questions(a, b))
            for a, b in zip(plan.sequence, plan.sequence[1:])
        )
        assert math.isclose(
            recomputed, plan.total_latency, rel_tol=1e-9, abs_tol=1e-9
        )


@settings(max_examples=40, deadline=None)
@given(
    c0=st.integers(2, 12),
    extra=st.integers(0, 8),
    delta=st.floats(1.0, 500.0, allow_nan=False),
    alpha=st.floats(0.1, 60.0, allow_nan=False),
)
def test_extra_budget_never_hurts(c0, extra, delta, alpha):
    """Optimal latency is monotone non-increasing in the budget."""
    latency = LinearLatency(delta=delta, alpha=alpha)
    tight = solve_min_latency(c0, c0 - 1, latency)
    slack = solve_min_latency(c0, min(20, c0 - 1 + extra), latency)
    assert slack.total_latency <= tight.total_latency + 1e-9


@settings(max_examples=40, deadline=None)
@given(c0=st.integers(2, 12), latency=latency_functions)
def test_minimum_budget_spends_exactly_c0_minus_1(c0, latency):
    """At b = c0 - 1 every feasible plan spends the whole budget.

    Each question eliminates at most one candidate (Theorem 1), so any
    sequence reaching a single candidate uses at least — hence, at the
    boundary, exactly — ``c0 - 1`` questions.
    """
    plan = solve_min_latency(c0, c0 - 1, latency)
    assert plan.questions_used == c0 - 1
    _validate_sequence(plan, c0, c0 - 1)


@settings(max_examples=40, deadline=None)
@given(shapes=shape_sequences, latency=latency_functions)
def test_growing_table_plans_like_cold_solves(shapes, latency):
    """Every lookup through one allocator equals a cold solve, bit for bit."""
    allocator = TDPAllocator()
    for c0, extra in shapes:
        budget = c0 - 1 + extra
        warm = allocator.plan(c0, budget, latency)
        cold = solve_min_latency(c0, budget, latency)
        assert warm.sequence == cold.sequence
        assert warm.total_latency == cold.total_latency
        assert warm.questions_used == cold.questions_used
        assert warm.frontier_sizes == cold.frontier_sizes
        _validate_sequence(warm, c0, budget)
        if c0 <= 12 and budget <= 20:
            memo = solve_min_latency_memo(c0, budget, latency)
            brute = brute_force_min_latency(c0, budget, latency)
            for reference in (memo, brute):
                assert math.isclose(
                    warm.total_latency,
                    reference.total_latency,
                    rel_tol=1e-9,
                    abs_tol=1e-9,
                ), (warm.sequence, reference.sequence)


def _min_cost_outcome(solve):
    try:
        return solve()
    except InvalidParameterError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(
    shapes=shape_sequences,
    latency=latency_functions,
    deadline=st.floats(0.0, 5000.0, allow_nan=False),
)
def test_min_cost_on_a_grown_table_matches_a_cold_one(
    shapes, latency, deadline
):
    """``solve_min_cost`` answers alike from a grown table and a cold one."""
    table = TDPTable(latency)
    for c0, extra in shapes:
        table.plan(c0, c0 - 1 + extra)
    for c0, extra in shapes:
        budget = c0 - 1 + extra
        grown = _min_cost_outcome(
            lambda: table.cheapest(c0, budget, deadline)
        )
        cold = _min_cost_outcome(
            lambda: solve_min_cost(c0, deadline, latency, budget=budget)
        )
        assert grown == cold
