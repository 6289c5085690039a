"""Tests for the shared value types."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.types import Answer, as_pairs, normalize_question


class TestAsPairs:
    def test_integer_rows_become_int64(self):
        pairs = as_pairs([(0, 1), (2, 3)])
        assert pairs.dtype == np.int64
        assert pairs.tolist() == [[0, 1], [2, 3]]
        assert as_pairs(np.array([[4, 5]], np.int32)).dtype == np.int64

    @pytest.mark.parametrize("empty", [[], (), np.empty((0, 2)), np.empty(0)])
    def test_empty_input_is_an_empty_int64_pair_array(self, empty):
        pairs = as_pairs(empty)
        assert pairs.shape == (0, 2)
        assert pairs.dtype == np.int64

    @pytest.mark.parametrize(
        "rows",
        [[[1.9, 0]], np.array([[1.0, 0.0]]), [["1", "0"]], [[True, False]]],
        ids=["float", "float-array", "str", "bool"],
    )
    def test_non_integer_rows_rejected_not_truncated(self, rows):
        with pytest.raises(InvalidParameterError, match="integer"):
            as_pairs(rows)


class TestNormalizeQuestion:
    def test_orders_endpoints(self):
        assert normalize_question(5, 2) == (2, 5)
        assert normalize_question(2, 5) == (2, 5)

    def test_rejects_self_comparison(self):
        with pytest.raises(ValueError):
            normalize_question(3, 3)


class TestAnswer:
    def test_question_is_canonical(self):
        assert Answer(winner=7, loser=3).question == (3, 7)
        assert Answer(winner=3, loser=7).question == (3, 7)

    def test_rejects_self_answer(self):
        with pytest.raises(ValueError):
            Answer(winner=1, loser=1)

    def test_answers_are_hashable_values(self):
        assert Answer(1, 2) == Answer(1, 2)
        assert len({Answer(1, 2), Answer(1, 2), Answer(2, 1)}) == 2
