"""Tests for the admission controller."""

import pytest

from repro.errors import InvalidParameterError
from repro.service import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)


def controller(max_active=2, max_queue=2, overload="defer"):
    return AdmissionController(
        AdmissionConfig(
            max_active_queries=max_active,
            max_queue_depth=max_queue,
            overload_policy=overload,
        )
    )


class TestDecisions:
    def test_admits_below_active_bound(self):
        gate = controller()
        assert gate.decide(n_active=0, n_waiting=0) is AdmissionDecision.ADMIT
        assert gate.decide(n_active=1, n_waiting=2) is AdmissionDecision.ADMIT

    def test_admits_into_queue_when_active_full(self):
        gate = controller()
        assert gate.decide(n_active=2, n_waiting=1) is AdmissionDecision.ADMIT

    def test_defers_when_both_full(self):
        gate = controller(overload="defer")
        assert gate.decide(n_active=2, n_waiting=2) is AdmissionDecision.DEFER

    def test_sheds_when_both_full(self):
        gate = controller(overload="shed")
        assert gate.decide(n_active=2, n_waiting=2) is AdmissionDecision.SHED

    def test_zero_queue_depth_means_active_bound_only(self):
        gate = controller(max_active=1, max_queue=0, overload="shed")
        assert gate.decide(n_active=0, n_waiting=0) is AdmissionDecision.ADMIT
        assert gate.decide(n_active=1, n_waiting=0) is AdmissionDecision.SHED

    @pytest.mark.parametrize("overload", ["shed", "defer"])
    def test_free_slots_count_the_admissions_in_a_row(self, overload):
        gate = controller(max_active=2, max_queue=3, overload=overload)
        for n_active, n_waiting in [(0, 0), (1, 2), (2, 3), (3, 4), (0, 5)]:
            slots = gate.free_slots(n_active, n_waiting)
            for taken in range(slots):
                assert gate.decide(n_active, n_waiting + taken) is AdmissionDecision.ADMIT
            assert gate.decide(n_active, n_waiting + slots) is not AdmissionDecision.ADMIT

    def test_describe_overload_names_the_bounds(self):
        reason = controller(max_active=3, max_queue=7).describe_overload()
        assert "3 active" in reason
        assert "7 waiting" in reason


class TestValidation:
    def test_rejects_zero_active(self):
        with pytest.raises(InvalidParameterError):
            AdmissionConfig(max_active_queries=0)

    def test_rejects_negative_queue(self):
        with pytest.raises(InvalidParameterError):
            AdmissionConfig(max_queue_depth=-1)

    def test_rejects_unknown_policy(self):
        with pytest.raises(InvalidParameterError):
            AdmissionConfig(overload_policy="panic")
