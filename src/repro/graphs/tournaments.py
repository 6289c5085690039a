"""Constructing concrete tournament graphs ``G_T(c_prev, c_next)``.

The core modules reason about tournament *counts*; this module materializes
the actual cliques over concrete elements as one ``(Q, 2)`` question array.
The random assignment of elements to tournaments that the paper prescribes
(Section 2.1: "we assume a random assignment of the advancing elements to
the tournaments") is a random permutation of the elements: position ``p`` of
the permutation joins the tournament that position ``p`` belongs to.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.questions import tournament_questions

#: Position templates of at most this many questions are kept for reuse;
#: a larger one is rebuilt per round, its cost spread over its questions.
CACHED_TEMPLATE_ROWS = 1024


def tournament_template(c_prev: int, c_next: int) -> np.ndarray:
    """The questions of ``G_T(c_prev, c_next)`` over positions ``0..c_prev-1``.

    Positions are dealt to the ``c_next`` tournaments in order, larger
    tournaments first (the sizes of Definition 1); each tournament
    contributes its complete clique as ``(i, j)`` rows with ``i < j`` in
    row-major order, so the row count is Definition 2's ``Q``.

    Returns:
        A read-only ``(Q, 2)`` intp array of position pairs.
    """
    if tournament_questions(c_prev, c_next) <= CACHED_TEMPLATE_ROWS:
        return _cached_template(c_prev, c_next)
    return _build_template(c_prev, c_next)


def tournament_graph(elements: np.ndarray, c_next: int) -> np.ndarray:
    """All intra-tournament questions of ``c_next`` tournaments over
    *elements*, dealt in the order given.

    Returns:
        A ``(Q, 2)`` int64 array of canonical ``(lo, hi)`` questions.
    """
    questions = np.asarray(elements, np.int64)[
        tournament_template(len(elements), c_next)
    ]
    questions.sort(axis=1)
    return questions


@functools.lru_cache(maxsize=256)
def _cached_template(c_prev: int, c_next: int) -> np.ndarray:
    return _build_template(c_prev, c_next)


def _build_template(c_prev: int, c_next: int) -> np.ndarray:
    small, extra = divmod(c_prev, c_next)
    blocks = []
    start = 0
    for size, count in ((small + 1, extra), (small, c_next - extra)):
        if size > 1 and count:
            clique = np.stack(np.triu_indices(size, 1), axis=1)
            offsets = start + size * np.arange(count)
            blocks.append((offsets[:, None, None] + clique).reshape(-1, 2))
        start += size * count
    template = (
        np.concatenate(blocks) if blocks else np.empty((0, 2), np.intp)
    )
    template.flags.writeable = False
    return template
