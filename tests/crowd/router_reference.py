"""The per-unit router placement, kept as the tests' reference.

:meth:`CapacityAwareRouter._assign` places a tick's units by their row
counts and cuts each backend's batch out of the tick's one question array
with a per-row target.  This module is the placement it must reproduce:
each unit a ``(query_id, block)`` of its own ``(k, 2)`` questions, every
placed block or split chunk appended to its backend's list, and the lists
concatenated at the end.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.crowd.breaker import RoundDecision
from repro.obs.metrics import get_registry
from repro.types import Questions, as_pairs


def as_tick(
    blocks: Sequence[Tuple[int, Questions]]
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """``(query_id, block)`` units as the tick's one ``(k, 2)`` array and
    its ``(query_id, rows)`` units, the arguments of ``post_round``."""
    arrays = [(query_id, as_pairs(block)) for query_id, block in blocks]
    questions = np.concatenate(
        [block for _, block in arrays] + [np.empty((0, 2), np.int64)]
    )
    return questions, [(query_id, len(block)) for query_id, block in arrays]


def reference_assign(
    router,
    units: Sequence[Tuple[int, Questions]],
    decisions: Dict[int, RoundDecision],
    budgets: Optional[Dict[int, float]] = None,
) -> Tuple[List[np.ndarray], np.ndarray, List[int]]:
    """Place every ``(query_id, block)`` unit on *router*'s fleet, one
    unit at a time; returns what ``_assign`` returns."""
    backends = router.backends
    blocks: List[List[np.ndarray]] = [[] for _ in backends]
    load = [0] * len(backends)
    remaining = [
        router._round_capacity(b, decisions[b.index]) for b in backends
    ]
    unposted: List[np.ndarray] = []
    placement_key = router._placement_key_function()
    for query_id, questions in units:
        block = as_pairs(questions)
        size = len(block)
        fits = [i for i, room in enumerate(remaining) if room >= size] if size else []
        if fits:
            budget = budgets.get(query_id) if budgets is not None else None
            best = fits[0]
            if len(fits) > 1 or budget is not None:
                keys = {i: placement_key(i, load[i] + size) for i in fits}
                best = min(fits, key=keys.__getitem__)
                if budget is not None and keys[best][-2] > budget:
                    best = min(fits, key=lambda i: keys[i][-2:])
                    get_registry().counter("router.budget_overrides").inc()
            blocks[best].append(block)
            load[best] += size
            remaining[best] -= size
            continue
        get_registry().counter("router.split_units").inc()
        spill = sorted(range(len(backends)), key=lambda i: (-remaining[i], i))
        cursor = 0
        for i in spill:
            slack = remaining[i]
            if slack <= 0 or cursor >= size:
                continue
            chunk = block[cursor : cursor + slack]
            blocks[i].append(chunk)
            load[i] += len(chunk)
            remaining[i] -= len(chunk)
            cursor += len(chunk)
        unposted.append(block[cursor:])
    assignment = [_rows(placed) for placed in blocks]
    return assignment, _rows(unposted), remaining


def _rows(blocks) -> np.ndarray:
    return np.concatenate([*blocks, np.empty((0, 2), np.int64)])
