"""LRU cache of tDP allocations keyed by query shape.

In a service, query *shapes* repeat constantly (the same ``c0``/budget
under the same latency model), so the optimal allocation can be reused
verbatim — tDP is deterministic given its inputs.  The cache key captures
everything the solver consumes: ``(c0, budget, latency-model, rwl-params)``.
A miss falls through to the allocator; tDP answers it from the growing
frontier table it keeps per latency model (:class:`repro.core.tdp.TDPTable`),
so a new shape is a lookup too, not a cold solve.

The latency model is keyed by its ``repr``; every model in
:mod:`repro.core.latency` renders its full parameterization there (knots
included for the tabulated models), so equal reprs imply equal functions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.allocation import Allocation
from repro.core.latency import LatencyFunction
from repro.errors import InvalidParameterError
from repro.obs.profiling import PROFILER


@dataclass(frozen=True)
class PlanKey:
    """Identity of a solver input: equal keys guarantee equal allocations.

    Attributes:
        n_elements: ``c0`` of the query.
        budget: the query's distinct-question budget.
        latency_key: ``repr`` of the latency model used for planning.
        repetition: the RWL repetition factor the service posts under.
    """

    n_elements: int
    budget: int
    latency_key: str
    repetition: int

    @classmethod
    def for_query(
        cls,
        n_elements: int,
        budget: int,
        latency: LatencyFunction,
        repetition: int = 1,
    ) -> "PlanKey":
        """Build the key for one query shape under *latency*."""
        return cls(
            n_elements=n_elements,
            budget=budget,
            latency_key=repr(latency),
            repetition=repetition,
        )


@dataclass
class PlanCacheStats:
    """Cumulative hit/miss/eviction counts of a :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class PlanCache:
    """A bounded LRU mapping :class:`PlanKey` to :class:`Allocation`.

    Args:
        capacity: maximum entries retained; the least recently *used*
            entry is evicted when a new key would exceed it.

    Lookups through :meth:`get` refresh recency and update the hit/miss
    stats; :meth:`peek` does neither (tests and reports use it to inspect
    the cache without perturbing it).
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise InvalidParameterError(
                f"plan cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._entries: "OrderedDict[PlanKey, Allocation]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PlanKey) -> bool:
        return key in self._entries

    def get(self, key: PlanKey) -> Optional[Allocation]:
        """The cached allocation for *key*, refreshing its recency."""
        allocation = self._entries.get(key)
        if allocation is None:
            self.stats.misses += 1
            if PROFILER.enabled:
                PROFILER.add("plan_cache.misses")
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        if PROFILER.enabled:
            PROFILER.add("plan_cache.hits")
        return allocation

    def peek(self, key: PlanKey) -> Optional[Allocation]:
        """Like :meth:`get` but without touching recency or stats."""
        return self._entries.get(key)

    def put(self, key: PlanKey, allocation: Allocation) -> None:
        """Insert (or refresh) *key*, evicting the LRU entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = allocation
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = allocation

    def items(self) -> List[Tuple[PlanKey, Allocation]]:
        """All entries, LRU first (a snapshot; safe to iterate)."""
        return list(self._entries.items())

    def clear(self) -> None:
        """Drop every entry; stats keep accumulating."""
        self._entries.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict summary for reports and metrics exports."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
            "hit_rate": self.stats.hit_rate,
        }
