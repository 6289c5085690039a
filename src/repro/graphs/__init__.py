"""Answer DAGs, remaining-candidate sets and tournament question graphs."""

from repro.graphs.answer_graph import AnswerGraph
from repro.graphs.candidates import (
    expected_remaining_candidates,
    max_independent_set,
    max_remaining_candidates,
    worst_case_answers,
)
from repro.graphs.tournaments import tournament_graph, tournament_template

__all__ = [
    "AnswerGraph",
    "max_independent_set",
    "max_remaining_candidates",
    "expected_remaining_candidates",
    "worst_case_answers",
    "tournament_graph",
    "tournament_template",
]
