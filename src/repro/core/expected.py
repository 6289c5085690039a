"""eDP: an average-case variant of tDP (an extension of the paper).

tDP plans against the *worst case*: a tournament round with budget
``Q(c, c')`` is guaranteed to leave exactly ``c'`` candidates.  The closing
discussion of Appendix A observes that under a uniform history a round that
asks a near-regular graph of ``q`` questions over ``c`` candidates leaves

    E[R] = r / (lo + 2) + (c - r) / (lo + 1),
    lo = floor(2q / c),  r = 2q mod c

candidates *in expectation* (Lemmas 4-5) — usually far fewer than the
worst case.  eDP runs the same Pareto-frontier dynamic program as tDP but
prices each transition ``c -> c'`` at the *smallest* ``q`` whose expected
survivor count rounds down to ``c'``, instead of the worst-case ``Q(c, c')``.

The result is a cheaper, faster plan that is **not** guaranteed to
singleton-terminate: when a round eliminates fewer candidates than
expected, the remaining budget may run out with several candidates left.
The ``bench_ablation_edp`` benchmark quantifies exactly this latency vs
termination trade-off against tDP, reproducing in spirit the
exploration-exploitation comparison the paper's appendix sketches.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.core.allocation import Allocation, BudgetAllocator
from repro.core.latency import LatencyFunction
from repro.core.questions import max_useful_budget
from repro.core.tdp import TDPPlan, _build_frontier, _Frontiers, _plan_from_point
from repro.errors import InvalidParameterError


def expected_survivors(n_candidates: int, questions: int) -> float:
    """``E[R]`` for a near-regular graph of *questions* over *n_candidates*.

    Uses the Lemma 5 optimal degree profile: ``2 * questions mod n`` nodes
    of degree ``floor(2q / n) + 1`` and the rest of degree ``floor(2q/n)``.
    """
    if n_candidates < 1:
        raise InvalidParameterError("n_candidates must be >= 1")
    if questions < 0:
        raise InvalidParameterError("questions must be >= 0")
    if questions > max_useful_budget(n_candidates):
        raise InvalidParameterError(
            f"{questions} questions exceed the pair space of "
            f"{n_candidates} candidates"
        )
    low, remainder = divmod(2 * questions, n_candidates)
    return remainder / (low + 2) + (n_candidates - remainder) / (low + 1)


def expected_transition_cost(n_candidates: int, target: int) -> int:
    """Smallest ``q`` whose expected survivor count rounds to <= *target*.

    Monotone binary search over ``q``; always at most the worst-case
    ``Q(n_candidates, target)`` (a tournament graph is near-regular, and
    its expected survivors are below its guaranteed survivors).
    """
    if not 1 <= target < n_candidates:
        raise InvalidParameterError(
            f"target must be in [1, {n_candidates}), got {target}"
        )
    lo, hi = 1, max_useful_budget(n_candidates)
    while lo < hi:
        mid = (lo + hi) // 2
        if int(expected_survivors(n_candidates, mid) + 0.5) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _expected_costs(n_candidates: int) -> np.ndarray:
    """Vector of expected transition costs to every target in [1, c).

    A vectorized binary search over ``q`` for every target at once; agrees
    with :func:`expected_transition_cost` element-wise (tested) but keeps
    the solver fast for large collections.
    """
    c = n_candidates
    targets = np.arange(1, c, dtype=np.int64)
    lo = np.ones(c - 1, dtype=np.int64)
    hi = np.full(c - 1, c * (c - 1) // 2, dtype=np.int64)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        degree, remainder = np.divmod(2 * mid, c)
        expected = remainder / (degree + 2) + (c - remainder) / (degree + 1)
        reaches = np.floor(expected + 0.5).astype(np.int64) <= targets
        hi = np.where(reaches, mid, hi)
        lo = np.where(reaches, lo, mid + 1)
    return lo


def solve_expected_min_latency(
    n_elements: int, budget: int, latency: LatencyFunction
) -> TDPPlan:
    """The eDP plan: minimal latency under expected-case transitions."""
    if n_elements < 1:
        raise InvalidParameterError(f"n_elements must be >= 1, got {n_elements}")
    if budget < n_elements - 1:
        raise InvalidParameterError(
            f"budget {budget} < c0 - 1 = {n_elements - 1}: infeasible"
        )
    # No row is empty: the step c -> c - 1 costs one question, so every
    # row has a point within c0 - 1 <= budget.
    frontiers = _Frontiers()  # row 1 is P(1) = {(0, 0)}
    for c in range(2, n_elements + 1):
        _build_frontier(frontiers, _expected_costs(c), latency, budget)
    # Min latency is the last point of P(c_0), the last point stored.
    return _plan_from_point(
        repeat(frontiers), frontiers.offsets[-1] - 1, frontiers.sizes()
    )


class ExpectedCaseAllocator(BudgetAllocator):
    """eDP: budget allocation optimized for the *expected* survivor counts.

    The returned allocation carries per-round budgets (the expected-case
    transition costs); unlike tDP there is no guarantee the plan reaches a
    single candidate — the trade-off the appendix of the paper gestures at.
    """

    name = "eDP"

    def _allocate(
        self, n_elements: int, budget: int, latency: LatencyFunction
    ) -> Allocation:
        plan = solve_expected_min_latency(n_elements, budget, latency)
        budgets = tuple(
            expected_transition_cost(c_prev, c_next)
            for c_prev, c_next in zip(plan.sequence, plan.sequence[1:])
        )
        return Allocation(round_budgets=budgets, allocator_name=self.name)

    def plan(
        self, n_elements: int, budget: int, latency: LatencyFunction
    ) -> TDPPlan:
        """Expose the full solver output (diagnostics included)."""
        return solve_expected_min_latency(n_elements, budget, latency)
