"""Integrating a real crowdsourcing platform with MaxSession.

The batch engines pull answers from an internal source — fine for
simulation, but a real deployment posts questions to an external platform
(MTurk, an internal labeling tool, a Slack bot...) and gets answers back
whenever humans provide them.  ``MaxSession`` inverts control for exactly
that: the caller owns the loop.

Here the "external platform" is a tiny stand-in class with an explicit
HTTP-ish interface, so the integration pattern is visible end to end.
Like a real crowd it answers piecemeal: some tasks are still out when the
caller stops waiting.  The loop submits whatever came back, re-asks the
rest, and checkpoints the session after every pass, mid-round included.

Run with:  python examples/real_platform_session.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import LinearLatency, TDPAllocator
from repro.crowd import GroundTruth
from repro.engine import MaxSession
from repro.persistence import save_json, session_to_dict
from repro.selection import TournamentFormation
from repro.types import Answer

N_ELEMENTS = 80
BUDGET = 500
#: Share of tasks still unanswered when the caller stops waiting.
STRAGGLER_SHARE = 0.2


class MyLabelingService:
    """Stand-in for your platform client (replace with real API calls)."""

    def __init__(self, seed: int) -> None:
        # In reality there is no ground truth object — humans are the
        # oracle.  The stand-in keeps one internally to produce answers.
        rng = np.random.default_rng(seed)
        self._truth = GroundTruth.random(N_ELEMENTS, rng)
        self._rng = rng
        self.batches_posted = 0

    def post_comparison_tasks(self, pairs):
        """POST /tasks — returns a task id per pair (elided)."""
        self.batches_posted += 1
        return list(pairs)

    def wait_for_results(self, tasks):
        """GET /results — the answers humans gave before the timeout."""
        return [
            self._truth.answer(a, b)
            for a, b in tasks
            if self._rng.random() >= STRAGGLER_SHARE
        ]


def main() -> None:
    latency_estimate = LinearLatency(delta=239.0, alpha=0.06)
    allocation = TDPAllocator().allocate(N_ELEMENTS, BUDGET, latency_estimate)
    print(f"plan: {allocation.round_budgets} "
          f"(candidate counts {allocation.element_sequence})\n")

    service = MyLabelingService(seed=21)
    session = MaxSession(
        allocation,
        TournamentFormation(),
        n_elements=N_ELEMENTS,
        rng=np.random.default_rng(0),
    )

    checkpoint = Path(tempfile.gettempdir()) / "max_session.json"
    while not session.done:
        # The round's questions not answered yet, as a (k, 2) int array of
        # (lo, hi) rows: all of them on the first pass, then the stragglers.
        pending = session.pending_questions()
        print(
            f"round {session.round_index}: posting {len(pending)} questions "
            f"over {len(session.candidates)} candidates"
        )
        tasks = service.post_comparison_tasks(pending.tolist())
        answers = service.wait_for_results(tasks)
        session.submit([Answer(a.winner, a.loser) for a in answers])
        # Long-running deployments checkpoint as they go; a session
        # restored with session_from_dict re-asks exactly what is missing.
        save_json(session_to_dict(session), checkpoint)

    print(
        f"\nMAX identified: element {session.winner} "
        f"({'singleton' if session.singleton_termination else 'by score'}) "
        f"after {session.rounds_executed} rounds / "
        f"{session.questions_posted} questions; "
        f"platform saw {service.batches_posted} batches"
    )


if __name__ == "__main__":
    main()
