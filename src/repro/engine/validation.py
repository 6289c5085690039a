"""Invariant checks for MAX runs and custom question selectors.

The library accepts user-provided :class:`QuestionSelector` implementations
(the paper's framework explicitly decouples budget allocation from question
selection), so these helpers let users — and the test suite — verify that
a selector honours its contract and that a finished run is internally
consistent.
"""

from __future__ import annotations

from repro.engine.results import MaxRunResult
from repro.errors import ReproError
from repro.selection.base import SelectionContext
from repro.types import Questions, as_pairs


class ContractViolation(ReproError):
    """A selector or run trace broke a documented invariant."""


def validate_selection(ctx: SelectionContext, questions: Questions) -> None:
    """Check one round's selector output (pairs or a ``(k, 2)`` int
    array) against the selector contract.

    Raises:
        ContractViolation: listing the first violated rule.
    """
    if len(questions) > ctx.budget:
        raise ContractViolation(
            f"selected {len(questions)} questions for a budget of {ctx.budget}"
        )
    seen = set()
    candidate_set = set(ctx.candidates)
    for question in map(tuple, as_pairs(questions).tolist()):
        a, b = question
        if a >= b:
            raise ContractViolation(
                f"question {question} is not in canonical (min, max) form"
            )
        if a not in candidate_set or b not in candidate_set:
            raise ContractViolation(
                f"question {question} involves non-candidates"
            )
        if question in seen:
            raise ContractViolation(f"duplicate question {question}")
        seen.add(question)
    if len(ctx.candidates) < 2 and len(questions):
        raise ContractViolation(
            "questions selected although fewer than two candidates remain"
        )


def validate_run(
    result: MaxRunResult, n_elements: int, budget: int
) -> None:
    """Check a finished run's trace for internal consistency.

    Verifies the round chain (candidate counts connect, never increase,
    each round posts within its budget), the budget constraint, and the
    singleton flag.

    Raises:
        ContractViolation: on the first inconsistency found.
    """
    previous_after = n_elements
    posted_total = 0
    for record in result.records:
        if record.candidates_before != previous_after:
            raise ContractViolation(
                f"round {record.round_index} starts with "
                f"{record.candidates_before} candidates but the previous "
                f"round left {previous_after}"
            )
        if record.candidates_after > record.candidates_before:
            raise ContractViolation(
                f"round {record.round_index} increased the candidate count"
            )
        if record.candidates_after < 1:
            raise ContractViolation(
                f"round {record.round_index} left no candidates"
            )
        if record.questions_posted > record.budget:
            raise ContractViolation(
                f"round {record.round_index} posted {record.questions_posted} "
                f"questions over its budget of {record.budget}"
            )
        if record.latency < 0:
            raise ContractViolation(
                f"round {record.round_index} has negative latency"
            )
        posted_total += record.questions_posted
        previous_after = record.candidates_after
    if posted_total != result.total_questions:
        raise ContractViolation(
            f"per-round questions sum to {posted_total} but the run reports "
            f"{result.total_questions}"
        )
    if result.total_questions > budget:
        raise ContractViolation(
            f"run posted {result.total_questions} questions over the "
            f"budget of {budget}"
        )
    if result.singleton_termination and previous_after != 1:
        raise ContractViolation(
            "run flagged singleton termination but more than one candidate "
            "remained"
        )
    if not result.singleton_termination and previous_after == 1:
        raise ContractViolation(
            "run ended with a single candidate but was not flagged singleton"
        )
