"""White-box tests of the Pareto-frontier machinery inside the tDP solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency import LinearLatency, PowerLawLatency
from repro.core.questions import tournament_questions
from repro.core.tdp import (
    TDPTable,
    _build_frontier,
    _FrontierTable,
    _transition_questions,
)
from repro.obs.profiling import profiled


def _complete(n, latency):
    """The complete rows ``P(1) .. P(n)`` of a table grown to *n*."""
    table = TDPTable(latency)
    table.plan(n, n - 1)
    return table._rows


def _capped(n, budget, latency):
    """The rows built with every point costing more than *budget* dropped."""
    rows = _FrontierTable(n)
    for c in range(2, n + 1):
        _build_frontier(rows, c, latency, budget)
    return rows


class TestTransitionQuestions:
    @given(st.integers(2, 300))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_q(self, c):
        vector = _transition_questions(c)
        assert len(vector) == c - 1
        for target in range(1, c):
            assert vector[target - 1] == tournament_questions(c, target)


class TestFrontierTable:
    def test_grow_preserves_contents(self):
        table = _FrontierTable(5, width=2)
        table.set_row(
            1,
            cost=np.zeros(1, np.int64),
            lat=np.zeros(1),
            parent_c=np.zeros(1, np.int32),
            parent_i=np.zeros(1, np.int32),
        )
        table.grow(8)
        assert table.width == 8
        assert table.size[1] == 1
        assert table.cost[1, 0] == 0
        assert table.lat[1, 1] == np.inf  # padding intact

    def test_set_row_wider_than_table_grows(self):
        table = _FrontierTable(4, width=2)
        table.set_row(
            2,
            cost=np.array([1, 2, 3], dtype=np.int64),
            lat=np.array([3.0, 2.0, 1.0]),
            parent_c=np.ones(3, np.int32),
            parent_i=np.zeros(3, np.int32),
        )
        assert table.width >= 3
        assert table.size[2] == 3


class TestFrontierInvariants:
    @given(
        n=st.integers(2, 60),
        data=st.data(),
        delta=st.floats(0, 300),
        alpha=st.floats(0.0, 2.0),
        p=st.floats(0.5, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_frontiers_are_strict_pareto_sets(self, n, data, delta, alpha, p):
        budget = data.draw(st.integers(n - 1, n * (n - 1) // 2))
        latency = PowerLawLatency(delta, max(alpha, 1e-9), p)
        capped = _capped(n, budget, latency)
        for table in (_complete(n, latency), capped):
            self._check_rows(table, n)
        assert all(
            capped.cost[c, int(capped.size[c]) - 1] <= budget
            for c in range(1, n + 1)
        )

    @staticmethod
    def _check_rows(table, n):
        for c in range(1, n + 1):
            count = int(table.size[c])
            assert count >= 1
            costs = table.cost[c, :count]
            lats = table.lat[c, :count]
            # Cost strictly ascending, latency strictly descending.
            assert all(b > a for a, b in zip(costs, costs[1:]))
            assert all(b < a for a, b in zip(lats, lats[1:]))
            # Theorem 1 lower bound per candidate count, and no sequence
            # asks a pair twice, so none costs more than C(c, 2).
            assert costs[0] >= c - 1
            assert costs[-1] <= c * (c - 1) // 2

    def test_parents_reference_valid_points(self):
        latency = LinearLatency(239, 0.06)
        table = _complete(50, latency)
        for c in range(2, 51):
            for i in range(int(table.size[c])):
                parent_c = int(table.parent_c[c, i])
                parent_i = int(table.parent_i[c, i])
                assert 1 <= parent_c < c
                assert 0 <= parent_i < int(table.size[parent_c])
                step = tournament_questions(c, parent_c)
                assert (
                    table.cost[c, i]
                    == step + table.cost[parent_c, parent_i]
                )
                assert table.lat[c, i] == pytest.approx(
                    latency(step) + table.lat[parent_c, parent_i]
                )


class TestTDPTable:
    LATENCY = PowerLawLatency(120, 3.0, 0.75)

    def test_nothing_is_built_before_the_first_lookup(self):
        table = TDPTable(self.LATENCY)
        assert table.n_elements == 1
        assert table._rows.size.tolist() == [0, 1]
        plan = table.plan(30, 29)
        assert table.n_elements == 30
        # Rows are complete, not cut at the first lookup's budget.
        assert plan.frontier_sizes[-1] == 1
        assert table._rows.cost[30, int(table._rows.size[30]) - 1] > 29

    def test_growth_policy(self):
        table = TDPTable(self.LATENCY)
        with profiled(publish=False) as profiler:
            table.plan(30, 90)
            rows = table._rows.cost.copy()
            table.plan(20, 400)  # larger budget, fewer rows: no build
            table.plan(30, 30)
            assert profiler.snapshot()["frontier.rows"] == 29
            np.testing.assert_array_equal(table._rows.cost[:31], rows)
            table.plan(50, 60)  # more rows: only 31..50 are built
            assert table.n_elements == 50
            assert profiler.snapshot()["frontier.rows"] == 49
        np.testing.assert_array_equal(table._rows.cost[:31, : rows.shape[1]], rows)

    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 60), st.integers(0, 200)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_grown_rows_cut_at_b_equal_a_cold_build(self, shapes):
        table = TDPTable(self.LATENCY)
        for n, extra in shapes:
            budget = n - 1 + extra
            plan = table.plan(n, budget)
            cold = _capped(n, budget, self.LATENCY)
            assert plan.frontier_sizes == tuple(cold.size[1 : n + 1].tolist())
            assert plan.questions_used == cold.cost[n, int(cold.size[n]) - 1]
            rows = table._rows
            for c in range(1, n + 1):
                count = int(cold.size[c])
                assert int(np.count_nonzero(rows.cost[c] <= budget)) == count
                for name in ("cost", "lat", "parent_c", "parent_i"):
                    np.testing.assert_array_equal(
                        getattr(rows, name)[c, :count],
                        getattr(cold, name)[c, :count],
                    )

    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 60), st.integers(0, 200)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_each_row_is_built_once(self, shapes):
        table = TDPTable(self.LATENCY)
        with profiled(publish=False) as profiler:
            for n, extra in shapes:
                table.plan(n, n - 1 + extra)
        counts = profiler.snapshot()
        assert counts.get("frontier.rows", 0) == max(n for n, _ in shapes) - 1
        assert counts["frontier.solves"] == len(shapes)
