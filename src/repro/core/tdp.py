"""tDP: the optimal-latency budget allocator (Algorithm 1 of the paper).

The paper formulates *MinLatency* (Problem 1): pick a tournament-graph
sequence ``(c_0, c_1, ..., c_r = 1)`` minimizing ``sum_i L(Q(c_{i-1}, c_i))``
subject to ``sum_i Q(c_{i-1}, c_i) <= b``, and solves it with a top-down
dynamic program over states ``(remaining budget, remaining candidates)``.

This module solves the identical problem with an equivalent — but much
faster — dynamic program over *Pareto frontiers*.  For every candidate count
``c`` we compute the set of non-dominated ``(total questions, total
latency)`` pairs achievable by tournament sequences from ``c`` down to 1:

    P(1) = {(0, 0)}
    P(c) = pareto( { (Q(c, c') + cost, L(Q(c, c')) + lat)
                     : c' in [1, c),  (cost, lat) in P(c') } )

The optimal allocation for budget ``b`` is the frontier point of ``P(c_0)``
with the lowest latency among those with ``cost <= b`` — by construction the
last such point of the (cost-ascending, latency-strictly-descending) frontier.
The frontiers are built complete, with no budget cut, and stay small: a
tournament sequence from ``c`` never asks a pair twice, so it costs at most
``C(c, 2)``, and for a linear ``L`` the frontier of ``c`` has at most
``ceil(log2 c)`` points (one per useful round count).

The frontiers depend only on ``L``, never on the query, and whether a point
survives a budget cut ``b`` depends on ``b`` only through ``cost <= b``: step
costs are non-negative and the Pareto sweep is prefix-consistent.  So the
complete frontiers cut at any ``b`` *are* the frontiers built at ``b``,
point for point and parent for parent.  :class:`TDPTable` exploits this: it
holds the complete frontiers of one latency model, builds each row once, the
first time a lookup needs it, and answers every ``(c_0, b)`` by cutting the
rows at ``b``.  :class:`TDPAllocator` keeps one table per latency model;
:func:`solve_min_latency` and :func:`solve_min_cost` are a fresh table plus
one lookup (a cold solve).

The frontiers live ragged in one :class:`_Frontiers` store: every point in
flat arrays, row after row, so ``P(1) .. P(c - 1)`` is a prefix and row
``c`` is formed from exactly one candidate per stored point.  The one
builder, :func:`_build_frontier`, takes a row's step costs and an optional
budget; it serves :class:`TDPTable`, the bounded-rounds solver
(:func:`solve_min_latency_bounded_rounds`) and eDP
(:mod:`repro.core.expected`), and :func:`_plan_from_point` walks any of
their frontier points back to a plan.

The literal top-down memoization of Algorithm 1 is also available as
:class:`repro.core.tdp_memo.MemoizedTDPAllocator` and is used to
cross-validate this solver in the test suite.  Both are exact; this one
makes the large-``c_0`` experiments of Section 6 practical in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.allocation import Allocation, BudgetAllocator
from repro.core.latency import LatencyFunction
from repro.core.questions import tournament_questions
from repro.errors import InvalidParameterError
from repro.obs.events import DPTableBuilt
from repro.obs.metrics import get_registry
from repro.obs.profiling import PROFILER
from repro.obs.tracer import current_tracer, timed

def _record_dp_build(
    solver: str, n_elements: int, budget: int, seconds: float, states: int
) -> None:
    """Feed metrics + the ambient tracer after a DP table build."""
    registry = get_registry()
    registry.counter("tdp.solver_calls").inc()
    registry.counter("tdp.frontier_points").inc(states)
    if PROFILER.enabled:
        PROFILER.add("frontier.solves")
    tracer = current_tracer()
    if tracer.enabled:
        tracer.emit(
            DPTableBuilt(
                solver=solver,
                n_elements=n_elements,
                budget=budget,
                seconds=seconds,
                states=states,
            )
        )


@dataclass(frozen=True)
class TDPPlan:
    """Full solver output: the optimal sequence plus diagnostics.

    Attributes:
        sequence: the optimal candidate-count sequence ``(c_0, ..., 1)``.
        total_latency: value of the MinLatency objective for the sequence.
        questions_used: questions the sequence actually spends; tDP may leave
            part of the budget unused when extra questions only add latency
            (the budget-limiting behaviour of Figures 13(b) and 14(b)).
        frontier_sizes: Pareto-frontier size per candidate count (diagnostic;
            index ``c`` holds ``|P(c)|``).
    """

    sequence: Tuple[int, ...]
    total_latency: float
    questions_used: int
    frontier_sizes: Tuple[int, ...]

    @property
    def rounds(self) -> int:
        return len(self.sequence) - 1

    def questions_for_first_round(self) -> int:
        """Question budget of the plan's first round (0 for a solved state).

        Used by the adaptive engine, which re-plans after every round and
        only ever executes a plan's first round.
        """
        if len(self.sequence) < 2:
            return 0
        return tournament_questions(self.sequence[0], self.sequence[1])


def _transition_questions(c: int) -> np.ndarray:
    """Vector of ``Q(c, c')`` for every ``c'`` in ``[1, c)``.

    Vectorized form of equation (2):  with ``k = c // c'`` and
    ``r = c mod c'``, ``Q = C(k+1, 2) * r + C(k, 2) * (c' - r)``.
    """
    targets = np.arange(1, c, dtype=np.int64)
    k = c // targets
    r = c - k * targets
    return (k + 1) * k // 2 * r + k * (k - 1) // 2 * (targets - r)


class _Frontiers:
    """Ragged storage of the Pareto frontiers ``P(1) .. P(n)``.

    Every point lives in flat arrays, row after row: row ``c`` is
    ``[offsets[c], offsets[c + 1])``, cost-ascending with strictly
    descending latency.  ``row[j]`` is the candidate count of point ``j``
    and ``parent[j]`` the flat index of the point it continues, in the
    store its row was built from.  Rows are appended in order, so
    ``P(1) .. P(c - 1)`` is the prefix ``[:offsets[c]]`` and holds only
    real points.  A row built under a budget may be empty.  Entries past
    ``offsets[-1]`` are spare capacity, not points.

    Row 1 is ``P(1) = {(0, 0)}``: the MAX of one candidate is already
    identified, at zero further cost and latency.
    """

    def __init__(self) -> None:
        self.offsets: List[int] = [0, 0, 1]
        self.cost = np.zeros(1, dtype=np.int64)
        self.lat = np.zeros(1, dtype=np.float64)
        self.row = np.ones(1, dtype=np.int64)
        self.parent = np.zeros(1, dtype=np.int64)

    @property
    def n_rows(self) -> int:
        """Largest candidate count with a stored row."""
        return len(self.offsets) - 2

    def sizes(self) -> np.ndarray:
        """Per-row frontier sizes, rows ``1 .. n_rows``."""
        return np.diff(self.offsets[1:])

    def append(self, cost: np.ndarray, lat: np.ndarray, parent: np.ndarray) -> None:
        """Store the points of row ``n_rows + 1``.

        The flat arrays at least double when full, so appending every row
        copies each point a constant number of times on average.
        """
        start = self.offsets[-1]
        end = start + len(cost)
        if end > len(self.cost):
            capacity = max(end, 2 * len(self.cost))
            for name in ("cost", "lat", "row", "parent"):
                stored = getattr(self, name)
                grown = np.empty(capacity, dtype=stored.dtype)
                grown[:start] = stored[:start]
                setattr(self, name, grown)
        self.cost[start:end] = cost
        self.lat[start:end] = lat
        self.row[start:end] = self.n_rows + 1
        self.parent[start:end] = parent
        self.offsets.append(end)


class TDPTable:
    """The complete Pareto frontiers of one latency model, grown on demand.

    Rows ``P(1) .. P(n)`` of a ragged :class:`_Frontiers` store hold every
    frontier point, with no budget cut, and each is built once: a lookup
    at ``(c_0, b)`` first appends rows ``n + 1 .. c_0`` if ``c_0 > n``,
    then cuts rows ``1 .. c_0`` at ``b`` by counting each row's points
    within the budget (exactly the frontiers a build at ``b`` would
    produce).  A fresh table plus one lookup is a cold solve, and every
    lookup reports like one — a ``tdp.solve`` span, one
    :class:`~repro.obs.events.DPTableBuilt` whose ``states`` counts the
    frontier points cut at ``b``, and the ``tdp.*`` counters — so a warm
    lookup is observably identical to a cold solve.

    Args:
        latency: the latency model ``L`` every transition is priced under.
    """

    def __init__(self, latency: LatencyFunction) -> None:
        self.latency = latency
        self._frontiers = _Frontiers()

    @property
    def n_elements(self) -> int:
        """Largest candidate count with a built row; row 1 is ``P(1)``."""
        return self._frontiers.n_rows

    def plan(self, n_elements: int, budget: int) -> TDPPlan:
        """The MinLatency optimum: the last point of ``P(c_0)`` within *budget*.

        Raises:
            InvalidParameterError: when the budget is below ``c_0 - 1``
                (Theorem 1: the problem has no solution).
        """
        sizes = self._lookup(n_elements, budget)
        last = self._frontiers.offsets[n_elements] + int(sizes[-1]) - 1
        return _plan_from_point(repeat(self._frontiers), last, sizes)

    def cheapest(self, n_elements: int, budget: int, deadline: float) -> TDPPlan:
        """The first (cheapest) point of ``P(c_0)`` within *budget* whose
        latency meets *deadline*.

        Raises:
            InvalidParameterError: when even the latency-optimal plan misses
                the deadline, or on an infeasible budget.
        """
        sizes = self._lookup(n_elements, budget)
        start = self._frontiers.offsets[n_elements]
        latencies = self._frontiers.lat[start : start + int(sizes[-1])]
        meeting = np.flatnonzero(latencies <= deadline)
        if meeting.size == 0:
            raise InvalidParameterError(
                f"no tournament sequence finishes within {deadline:g} s; the "
                f"fastest achievable latency is {float(latencies[-1]):g} s"
            )
        return _plan_from_point(
            repeat(self._frontiers), start + int(meeting[0]), sizes
        )

    def _lookup(self, n_elements: int, budget: int) -> np.ndarray:
        """Grow to cover *n_elements*; per-row sizes cut at *budget*."""
        _check_shape(n_elements, budget)
        frontiers = self._frontiers
        with timed("tdp.solve") as span:
            for c in range(frontiers.n_rows + 1, n_elements + 1):
                _build_frontier(frontiers, _transition_questions(c), self.latency)
            # Rows are cost-ascending, so a row cut at the budget keeps
            # exactly its points within the budget: count them per row.
            end = frontiers.offsets[n_elements + 1]
            within = frontiers.row[:end][frontiers.cost[:end] <= budget]
            sizes = np.bincount(within, minlength=n_elements + 1)[1:]
        _record_dp_build(
            "frontier", n_elements, budget, span.seconds, int(sizes.sum())
        )
        return sizes


def _check_shape(n_elements: int, budget: int) -> None:
    """Reject a ``(c_0, b)`` outside MinLatency's domain."""
    if n_elements < 1:
        raise InvalidParameterError(f"n_elements must be >= 1, got {n_elements}")
    if budget < n_elements - 1:
        raise InvalidParameterError(
            f"budget {budget} < c0 - 1 = {n_elements - 1}: MinLatency is "
            f"infeasible (Theorem 1)"
        )


def solve_min_latency(
    n_elements: int, budget: int, latency: LatencyFunction
) -> TDPPlan:
    """Solve MinLatency (Problem 1) exactly, from a cold table.

    Args:
        n_elements: ``c_0``, the size of the input collection (>= 1).
        budget: ``b``, the maximum total number of questions (>= c_0 - 1).
        latency: the platform latency function ``L(q)``.

    Returns:
        The optimal :class:`TDPPlan`.

    Raises:
        InvalidParameterError: when the budget is below ``c_0 - 1``
            (Theorem 1: the problem has no solution).
    """
    return TDPTable(latency).plan(n_elements, budget)


def solve_min_cost(
    n_elements: int,
    deadline: float,
    latency: LatencyFunction,
    budget: Optional[int] = None,
) -> TDPPlan:
    """The dual of MinLatency: spend the fewest questions within a deadline.

    The paper frames the cost-latency tradeoff both ways (Section 1); with
    the Pareto frontiers already in hand, "minimize total questions subject
    to total latency <= deadline" is a single frontier query: the frontier
    of ``c_0`` is cost-ascending with strictly descending latency, so the
    *first* point meeting the deadline is the cheapest one.

    Args:
        n_elements: ``c_0``, the size of the input collection (>= 1).
        deadline: maximum acceptable total latency, in seconds.
        latency: the platform latency function ``L(q)``.
        budget: optional question cap; defaults to the complete-tournament
            maximum ``C(c_0, 2)`` (no tournament sequence can need more).

    Returns:
        The cheapest :class:`TDPPlan` whose latency fits the deadline.

    Raises:
        InvalidParameterError: when even the latency-optimal plan misses
            the deadline (the message reports the fastest achievable
            latency), or on out-of-domain arguments.
    """
    if deadline < 0:
        raise InvalidParameterError(f"deadline must be >= 0, got {deadline}")
    if budget is None:
        budget = max(n_elements - 1, n_elements * (n_elements - 1) // 2)
    return TDPTable(latency).cheapest(n_elements, budget, deadline)


def _build_frontier(
    frontiers: _Frontiers,
    step_cost: np.ndarray,
    latency: LatencyFunction,
    budget: Optional[int] = None,
    source: Optional[_Frontiers] = None,
) -> int:
    """Append the next row ``P(c)``, ``c = frontiers.n_rows + 1``, built from
    the frontiers of every smaller candidate count.

    *step_cost* prices one round ``c -> c'`` for every ``c'`` in ``[1, c)``:
    ``Q(c, c')`` for tDP, the expected-case cost for eDP.  *budget*, when
    given, drops every point costing more; by default the row is
    complete.  *source* is the store transitions read continuation
    frontiers from; by default *frontiers* itself (the unbounded
    recursion).  The bounded-rounds solver passes both: its budget and the
    previous round count's store, and a row with no point within both
    stays empty.

    Returns:
        The number of points in the new row.
    """
    if source is None:
        source = frontiers
    step_lat = latency.batch(step_cost)  # L(step) per target c'
    # One candidate per stored point of P(1) .. P(c - 1), extended by the
    # round c -> c' into that point's row c'; its flat index is its parent.
    end = source.offsets[frontiers.n_rows + 1]
    target = source.row[:end] - 1
    flat_cost = step_cost[target] + source.cost[:end]
    flat_lat = step_lat[target] + source.lat[:end]
    if budget is None:
        order = np.lexsort((flat_lat, flat_cost))
    else:
        valid = np.flatnonzero(flat_cost <= budget)
        order = valid[np.lexsort((flat_lat[valid], flat_cost[valid]))]
    lat_sorted = flat_lat[order]
    # Strict Pareto sweep: keep a point only when it improves the best
    # latency seen at any lower-or-equal cost.
    running_best = np.minimum.accumulate(lat_sorted)
    keep = np.empty(len(order), dtype=bool)
    keep[:1] = True  # no-op on a row with no candidate within the budget
    keep[1:] = lat_sorted[1:] < running_best[:-1]
    chosen = order[keep]
    if PROFILER.enabled:
        # One batched tally per frontier row, never per cell: the counters
        # are exact work counts (pure functions of the instance), while
        # the disabled path above costs a single attribute load.
        PROFILER.add("frontier.rows")
        PROFILER.add("frontier.candidates", end)
        PROFILER.add("frontier.cells", len(order))
        PROFILER.add("frontier.points", len(chosen))
    frontiers.append(flat_cost[chosen], flat_lat[chosen], chosen)
    return len(chosen)


def solve_min_latency_bounded_rounds(
    n_elements: int,
    budget: int,
    latency: LatencyFunction,
    max_rounds: int,
) -> TDPPlan:
    """MinLatency with an additional cap on the number of rounds.

    Problem 1 leaves the round count unconstrained; deployments sometimes
    cannot (e.g. an operator polling the platform on a fixed cadence, or
    the rounds-as-latency model of Venetis et al. [23]).  This solver adds
    the constraint ``r <= max_rounds`` by indexing the Pareto frontiers by
    round count: ``P_r(c)`` holds the non-dominated (cost, latency) pairs
    of sequences from ``c`` to 1 using at most ``r`` rounds, built from
    ``P_{r-1}``.

    Args:
        n_elements: ``c_0`` (>= 1).
        budget: ``b`` (>= c_0 - 1).
        latency: the platform latency function.
        max_rounds: maximum rounds allowed (>= 1).

    Returns:
        The optimal :class:`TDPPlan` among plans with at most *max_rounds*
        rounds.

    Raises:
        InvalidParameterError: when no plan satisfies both the budget and
            the round cap (e.g. ``max_rounds = 1`` with a budget below the
            complete tournament ``C(c_0, 2)``).
    """
    _check_shape(n_elements, budget)
    if max_rounds < 1:
        raise InvalidParameterError(f"max_rounds must be >= 1, got {max_rounds}")
    if n_elements == 1:
        return TDPPlan((1,), 0.0, 0, frontier_sizes=(1,))

    with timed("tdp.solve") as span:
        solved = _Frontiers()  # P_0: only the solved state, rows 2.. empty
        solved.offsets.extend([1] * (n_elements - 1))
        stores = [solved]
        for _ in range(max_rounds):
            current = _Frontiers()
            for c in range(2, n_elements + 1):
                _build_frontier(
                    current, _transition_questions(c), latency, budget,
                    source=stores[-1],
                )
            stores.append(current)
    last = stores[-1]
    _record_dp_build(
        "frontier-bounded",
        n_elements,
        budget,
        span.seconds,
        sum(store.offsets[-1] for store in stores[1:]),
    )
    sizes = last.sizes()
    if sizes[-1] == 0:
        raise InvalidParameterError(
            f"no tournament sequence reaches the MAX of {n_elements} "
            f"elements within {max_rounds} round(s) and {budget} questions"
        )
    # Min latency is the last point of P_r(c_0), the last point stored; a
    # state r rounds from the end reads its parents from P_r.
    return _plan_from_point(reversed(stores), last.offsets[-1] - 1, sizes)


def _plan_from_point(
    stores: Iterable[_Frontiers], point: int, sizes: np.ndarray
) -> TDPPlan:
    """Reconstruct the plan behind one frontier point of P(c_0).

    *point* is the point's flat index in the first store of *stores*, which
    gives the store each state of the walk reads, ``c_0`` first.  *sizes*
    are the per-row frontier sizes the plan reports (rows 1..c_0).
    """
    stores = iter(stores)
    store = next(stores)
    total_latency = float(store.lat[point])
    questions_used = int(store.cost[point])
    sequence: List[int] = [int(store.row[point])]
    while sequence[-1] != 1:
        point = int(store.parent[point])
        store = next(stores)
        sequence.append(int(store.row[point]))
    return TDPPlan(
        sequence=tuple(sequence),
        total_latency=total_latency,
        questions_used=questions_used,
        frontier_sizes=tuple(sizes.tolist()),
    )


class TDPAllocator(BudgetAllocator):
    """The paper's tDP budget-allocation algorithm (optimal for Problem 1).

    Combined with the Tournament-formation question selector this is also
    optimal for the Generalized Worst MinLatency problem (Theorem 4).

    The allocator keeps one :class:`TDPTable` per latency model, created on
    the first call under that model, so every later shape under the same
    model is planned by lookup; the plans equal cold solves exactly.

    Example:
        >>> from repro.core.latency import LinearLatency
        >>> tdp = TDPAllocator()
        >>> allocation = tdp.allocate(40, 108, LinearLatency(100, 1))
        >>> allocation.element_sequence
        (40, 8, 1)
        >>> allocation.round_budgets
        (80, 28)
    """

    name = "tDP"

    def __init__(self) -> None:
        self._tables: Dict[LatencyFunction, TDPTable] = {}

    def _table(self, latency: LatencyFunction) -> TDPTable:
        """The growing frontier table of *latency* (empty until first used).

        Latency models compare by value, so equal models share one table.
        """
        table = self._tables.get(latency)
        if table is None:
            table = self._tables[latency] = TDPTable(latency)
        return table

    def _allocate(
        self, n_elements: int, budget: int, latency: LatencyFunction
    ) -> Allocation:
        plan = self._table(latency).plan(n_elements, budget)
        return Allocation.from_element_sequence(plan.sequence, self.name)

    def plan(
        self, n_elements: int, budget: int, latency: LatencyFunction
    ) -> TDPPlan:
        """Expose the full solver output (diagnostics included)."""
        return self._table(latency).plan(n_elements, budget)
