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
    _Frontiers,
    _transition_questions,
)
from repro.obs.profiling import profiled


def _complete(n, latency):
    """The complete rows ``P(1) .. P(n)`` of a table grown to *n*."""
    table = TDPTable(latency)
    table.plan(n, n - 1)
    return table._frontiers


def _capped(n, budget, latency):
    """The rows built with every point costing more than *budget* dropped."""
    rows = _Frontiers()
    for c in range(2, n + 1):
        _build_frontier(rows, _transition_questions(c), latency, budget)
    return rows


def _row(store, c, name="cost"):
    """Row ``c`` of the flat array *name* of a store."""
    return getattr(store, name)[store.offsets[c] : store.offsets[c + 1]]


def _named(store, points):
    """The ``(row, position in row)`` of flat *points* of a store."""
    rows = store.row[points]
    return rows, points - np.take(store.offsets, rows)


class TestTransitionQuestions:
    @given(st.integers(2, 300))
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_q(self, c):
        vector = _transition_questions(c)
        assert len(vector) == c - 1
        for target in range(1, c):
            assert vector[target - 1] == tournament_questions(c, target)


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
        assert all(_row(capped, c)[-1] <= budget for c in range(1, n + 1))

    @staticmethod
    def _check_rows(table, n):
        assert table.n_rows == n
        for c in range(1, n + 1):
            costs, lats = _row(table, c), _row(table, c, "lat")
            assert len(costs) >= 1
            assert (_row(table, c, "row") == c).all()
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
            for i in range(table.offsets[c], table.offsets[c + 1]):
                parent = int(table.parent[i])
                # A parent is a point of a smaller row, P(1..c-1).
                assert 0 <= parent < table.offsets[c]
                parent_c = int(table.row[parent])
                assert 1 <= parent_c < c
                step = tournament_questions(c, parent_c)
                assert table.cost[i] == step + table.cost[parent]
                assert table.lat[i] == pytest.approx(
                    latency(step) + table.lat[parent]
                )


class TestTDPTable:
    LATENCY = PowerLawLatency(120, 3.0, 0.75)

    def test_nothing_is_built_before_the_first_lookup(self):
        table = TDPTable(self.LATENCY)
        assert table.n_elements == 1
        assert table._frontiers.sizes().tolist() == [1]
        plan = table.plan(30, 29)
        assert table.n_elements == 30
        # Rows are complete, not cut at the first lookup's budget.
        assert plan.frontier_sizes[-1] == 1
        assert _row(table._frontiers, 30)[-1] > 29

    def test_growth_policy(self):
        table = TDPTable(self.LATENCY)
        with profiled(publish=False) as profiler:
            table.plan(30, 90)
            end = table._frontiers.offsets[-1]
            rows = table._frontiers.cost[:end].copy()
            table.plan(20, 400)  # larger budget, fewer rows: no build
            table.plan(30, 30)
            assert profiler.snapshot()["frontier.rows"] == 29
            assert table._frontiers.offsets[-1] == end
            table.plan(50, 60)  # more rows: only 31..50 are built
            assert table.n_elements == 50
            assert profiler.snapshot()["frontier.rows"] == 49
        # Rows 1..30 stay the prefix, untouched by the appended rows.
        np.testing.assert_array_equal(table._frontiers.cost[:end], rows)

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
            assert plan.frontier_sizes == tuple(cold.sizes().tolist())
            assert plan.questions_used == _row(cold, n)[-1]
            rows = table._frontiers
            for c in range(1, n + 1):
                count = len(_row(cold, c))
                assert int(np.count_nonzero(_row(rows, c) <= budget)) == count
                for name in ("cost", "lat", "row"):
                    np.testing.assert_array_equal(
                        _row(rows, c, name)[:count], _row(cold, c, name)
                    )
                # Parents are flat indices of different stores: compare
                # the points they name.
                for got, want in zip(
                    _named(rows, _row(rows, c, "parent")[:count]),
                    _named(cold, _row(cold, c, "parent")),
                ):
                    np.testing.assert_array_equal(got, want)

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
