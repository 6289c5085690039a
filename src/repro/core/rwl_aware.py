"""Allocation that accounts for Reliable-Worker-Layer question repetition.

The paper's architecture places an RWL between the algorithms and the
platform (Section 2.1) and notes that the latency function "models the
delays of the RWL".  When the RWL posts every question ``r`` times for
majority voting, two things change from the allocator's point of view:

* a round that plans ``q`` *distinct* questions actually posts ``r * q``
  platform questions, so its latency is ``L(r * q)``;
* the overall budget of platform questions buys only ``b // r`` distinct
  comparisons.

:class:`RepetitionAwareAllocator` folds both effects into any inner
allocator by rescaling the latency function and the budget, so the inner
algorithm (typically tDP) optimizes the *true* end-to-end latency.
"""

from __future__ import annotations

from repro.core.allocation import Allocation, BudgetAllocator
from repro.core.latency import LatencyFunction
from repro.errors import InvalidParameterError

import numpy as np


class _RepeatedLatency(LatencyFunction):
    """``L'(q) = L(repetition * q)``: the latency of a repeated batch."""

    def __init__(self, inner: LatencyFunction, repetition: int) -> None:
        self.inner = inner
        self.repetition = repetition

    def __call__(self, q: int) -> float:
        self._check_batch(q)
        return self.inner(self.repetition * q)

    def batch(self, qs: np.ndarray) -> np.ndarray:
        return self.inner.batch(np.asarray(qs) * self.repetition)

    def __repr__(self) -> str:
        return f"_RepeatedLatency({self.inner!r}, repetition={self.repetition})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _RepeatedLatency)
            and self.inner == other.inner
            and self.repetition == other.repetition
        )

    def __hash__(self) -> int:
        return hash(("_RepeatedLatency", self.inner, self.repetition))


class RepetitionAwareAllocator(BudgetAllocator):
    """Wrap an allocator so it plans in distinct questions under an RWL.

    Args:
        inner: the allocator doing the actual optimization (e.g. tDP).
        repetition: the RWL's per-question repetition factor.

    The produced allocation's ``round_budgets`` are *distinct* question
    counts — exactly what the engine and the RWL consume (the RWL
    multiplies by ``repetition`` internally when posting).

    Example: with ``repetition = 5`` and a platform budget of 4000, the
    wrapped tDP plans 800 distinct questions whose per-round batches are
    priced at ``L(5 * q)``.
    """

    def __init__(self, inner: BudgetAllocator, repetition: int) -> None:
        if repetition < 1:
            raise InvalidParameterError(
                f"repetition must be >= 1, got {repetition}"
            )
        self.inner = inner
        self.repetition = repetition
        self.name = f"{inner.name}@x{repetition}"

    def allocate(
        self, n_elements: int, budget: int, latency: LatencyFunction
    ) -> Allocation:
        distinct_budget = budget // self.repetition
        if n_elements >= 1 and distinct_budget < n_elements - 1:
            raise InvalidParameterError(
                f"platform budget {budget} buys only {distinct_budget} "
                f"distinct questions under {self.repetition}x repetition; "
                f"{n_elements} elements need at least {n_elements - 1} "
                f"(Theorem 1)"
            )
        inner_allocation = self.inner.allocate(
            n_elements,
            distinct_budget,
            _RepeatedLatency(latency, self.repetition),
        )
        return Allocation(
            round_budgets=inner_allocation.round_budgets,
            element_sequence=inner_allocation.element_sequence,
            allocator_name=self.name,
        )

    def _allocate(
        self, n_elements: int, budget: int, latency: LatencyFunction
    ) -> Allocation:  # pragma: no cover - allocate() is fully overridden
        raise NotImplementedError
