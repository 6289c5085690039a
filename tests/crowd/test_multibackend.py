"""Unit tests for the multi-backend federation layer (specs + router)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.latency import LinearLatency, mturk_car_latency
from repro.crowd.breaker import CircuitBreakerConfig, RoundDecision
from repro.crowd.faults import FaultProfile
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.multibackend import (
    PROBE_QUESTIONS,
    SOLO_BACKEND_NAME,
    BackendSpec,
    CapacityAwareRouter,
    available_backend_presets,
    backend_preset_by_name,
    backend_spec_from_dict,
    backend_spec_to_dict,
    build_backends,
    load_backend_specs,
    resolve_backends,
    resolve_fleet,
    validate_fleet,
)
from repro.crowd.workers import WorkerPoolConfig
from repro.errors import InvalidParameterError
from tests.crowd.router_reference import as_tick

FAST = LinearLatency(delta=100.0, alpha=0.1)
SLOW = LinearLatency(delta=400.0, alpha=0.1)


def _truth(n=30, seed=0):
    return GroundTruth.random(n, np.random.default_rng((seed, 0)))


def _fleet(specs, seed=0, **kwargs):
    return build_backends(specs, _truth(seed=seed), seed, **kwargs)


def _questions(n, start=0):
    return [(start + i, start + i + 100) for i in range(n)]


class TestBackendSpec:
    def test_rejects_empty_and_multiline_names(self):
        with pytest.raises(InvalidParameterError):
            BackendSpec(name="", latency=FAST)
        with pytest.raises(InvalidParameterError):
            BackendSpec(name="two\nlines", latency=FAST)

    def test_rejects_bad_capacity_and_price(self):
        with pytest.raises(InvalidParameterError):
            BackendSpec(name="a", latency=FAST, capacity=0)
        with pytest.raises(InvalidParameterError):
            BackendSpec(name="a", latency=FAST, price_per_question=-0.01)

    def test_fleet_validation(self):
        with pytest.raises(InvalidParameterError):
            validate_fleet([])
        dup = BackendSpec(name="a", latency=FAST)
        with pytest.raises(InvalidParameterError):
            validate_fleet([dup, BackendSpec(name="a", latency=SLOW)])

    def test_round_trips_through_dict(self):
        spec = BackendSpec(
            name="stormy",
            latency=FAST,
            capacity=120,
            price_per_question=0.02,
            fault_profile=FaultProfile(
                outage_window=(100.0, 900.0), outage_detection_time=60.0
            ),
            breaker=CircuitBreakerConfig(failure_threshold=2),
            worker_config=WorkerPoolConfig(),
        )
        restored = backend_spec_from_dict(backend_spec_to_dict(spec))
        assert restored == spec

    def test_from_dict_accepts_named_fault_profile(self):
        payload = backend_spec_to_dict(BackendSpec(name="a", latency=FAST))
        payload["fault_profile"] = "outages"
        restored = backend_spec_from_dict(payload)
        assert restored.fault_profile is not None

    def test_load_specs_from_json_file(self, tmp_path):
        specs = [
            BackendSpec(name="a", latency=FAST, capacity=10),
            BackendSpec(name="b", latency=SLOW, price_per_question=0.01),
        ]
        path = tmp_path / "fleet.json"
        path.write_text(
            json.dumps({"backends": [backend_spec_to_dict(s) for s in specs]}),
            encoding="utf-8",
        )
        assert load_backend_specs(path) == specs
        # A bare list works too.
        path.write_text(
            json.dumps([backend_spec_to_dict(s) for s in specs]),
            encoding="utf-8",
        )
        assert load_backend_specs(path) == specs

    def test_load_specs_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"nope": 1}', encoding="utf-8")
        with pytest.raises(InvalidParameterError):
            load_backend_specs(path)


class TestPresets:
    def test_known_presets(self):
        assert "trio" in available_backend_presets()
        for name in available_backend_presets():
            fleet = backend_preset_by_name(name)
            validate_fleet(fleet)

    def test_unknown_preset_lists_available(self):
        with pytest.raises(InvalidParameterError, match="trio"):
            backend_preset_by_name("nope")

    def test_resolve_prefers_files_for_paths(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(
            json.dumps(
                [backend_spec_to_dict(BackendSpec(name="a", latency=FAST))]
            ),
            encoding="utf-8",
        )
        assert resolve_backends(str(path))[0].name == "a"
        assert [s.name for s in resolve_backends("duo")] == ["boutique", "bulk"]


class TestBuildBackends:
    def test_solo_fleet_uses_per_backend_streams(self):
        (backend,) = _fleet([BackendSpec(name="solo", latency=FAST)], seed=9)
        expected = np.random.default_rng((9, 1, 0)).bit_generator.state
        assert backend.inner._rng.bit_generator.state == expected
        expected_rwl = np.random.default_rng((9, 2, 0)).bit_generator.state
        assert backend.rwl._rng.bit_generator.state == expected_rwl

    def test_multi_fleet_uses_per_backend_streams(self):
        fleet = _fleet(
            [
                BackendSpec(name="a", latency=FAST),
                BackendSpec(name="b", latency=SLOW),
            ],
            seed=9,
        )
        for index, backend in enumerate(fleet):
            expected = np.random.default_rng((9, 1, index)).bit_generator.state
            assert backend.inner._rng.bit_generator.state == expected

    def test_spec_worker_config_overrides_fleet_default(self):
        spec_cfg = WorkerPoolConfig(base_workers=3)
        fleet = _fleet(
            [
                BackendSpec(name="a", latency=FAST, worker_config=spec_cfg),
                BackendSpec(name="b", latency=SLOW),
            ],
            worker_config=WorkerPoolConfig(base_workers=7),
        )
        assert fleet[0].inner.config.base_workers == 3
        assert fleet[1].inner.config.base_workers == 7


class TestRouterAssignment:
    def _router(self, specs, policy="latency", **kwargs):
        return CapacityAwareRouter(_fleet(specs, **kwargs), policy)

    def _assign(self, router, units, decisions):
        return router._assign(*as_tick(units), decisions)

    def _post(self, router):
        return {
            b.index: RoundDecision.POST for b in router.backends
        }

    def test_rejects_unknown_policy(self):
        with pytest.raises(InvalidParameterError):
            self._router([BackendSpec(name="a", latency=FAST)], policy="magic")

    def test_latency_policy_prefers_fastest_prediction(self):
        router = self._router(
            [
                BackendSpec(name="slow", latency=SLOW),
                BackendSpec(name="fast", latency=FAST),
            ]
        )
        assignment, unposted, _ = self._assign(router, 
            [(0, _questions(5))], self._post(router)
        )
        assert len(unposted) == 0
        assert len(assignment[1]) == 5  # "fast"
        assert len(assignment[0]) == 0

    def test_capacity_is_respected_and_overflow_stays_unposted(self):
        router = self._router(
            [
                BackendSpec(name="a", latency=FAST, capacity=4),
                BackendSpec(name="b", latency=SLOW, capacity=3),
            ]
        )
        assignment, unposted, _ = self._assign(router, 
            [(0, _questions(10))], self._post(router)
        )
        assert len(assignment[0]) == 4
        assert len(assignment[1]) == 3
        # The overflow comes back as the block's last rows, as given.
        assert unposted.dtype == np.int64
        assert unposted.tolist() == [list(q) for q in _questions(10)[7:]]

    def test_blocks_stay_whole_when_any_backend_fits_them(self):
        router = self._router(
            [
                BackendSpec(name="small", latency=FAST, capacity=4),
                BackendSpec(name="big", latency=SLOW, capacity=100),
            ]
        )
        assignment, unposted, _ = self._assign(router, 
            [(0, _questions(6))], self._post(router)
        )
        # Slower, but the only backend that takes the block whole.
        assert len(assignment[1]) == 6
        assert len(unposted) == 0

    def test_weighted_price_spills_to_pricier_on_capacity(self):
        router = self._router(
            [
                BackendSpec(
                    name="pricey", latency=FAST, price_per_question=0.10
                ),
                BackendSpec(
                    name="cheap",
                    latency=SLOW,
                    price_per_question=0.01,
                    capacity=5,
                ),
            ],
            policy="weighted-price",
        )
        assignment, _, _ = self._assign(router, 
            [(0, _questions(5)), (1, _questions(4, start=50))],
            self._post(router),
        )
        assert len(assignment[1]) == 5  # cheap fills first
        assert len(assignment[0]) == 4  # spill to the pricey backend

    def test_least_loaded_balances_occupancy(self):
        router = self._router(
            [
                BackendSpec(name="a", latency=FAST, capacity=10),
                BackendSpec(name="b", latency=FAST, capacity=10),
            ],
            policy="least-loaded",
        )
        assignment, _, _ = self._assign(router, 
            [(0, _questions(4)), (1, _questions(4, start=50))],
            self._post(router),
        )
        assert len(assignment[0]) == 4
        assert len(assignment[1]) == 4

    def test_open_backend_is_excluded_from_the_split(self):
        router = self._router(
            [
                BackendSpec(name="dead", latency=FAST),
                BackendSpec(name="alive", latency=SLOW),
            ]
        )
        decisions = {0: RoundDecision.DEFER, 1: RoundDecision.POST}
        assignment, unposted, _ = self._assign(router, 
            [(0, _questions(6))], decisions
        )
        assert len(assignment[0]) == 0
        assert len(assignment[1]) == 6
        assert len(unposted) == 0

    def test_half_open_backend_gets_a_probe_quota(self):
        router = self._router(
            [
                BackendSpec(name="probe", latency=FAST),
                BackendSpec(name="ok", latency=SLOW),
            ]
        )
        decisions = {0: RoundDecision.PROBE, 1: RoundDecision.POST}
        assignment, unposted, _ = self._assign(router, 
            [(0, _questions(PROBE_QUESTIONS + 20))], decisions
        )
        # Too big for the probe quota: the block lands whole on the
        # healthy backend.
        assert len(assignment[1]) == PROBE_QUESTIONS + 20
        assert len(unposted) == 0
        assignment, _, _ = self._assign(router, 
            [(0, _questions(PROBE_QUESTIONS + 20)),
             (1, _questions(4, start=50))],
            {0: RoundDecision.PROBE, 1: RoundDecision.POST},
        )
        assert len(assignment[0]) <= PROBE_QUESTIONS

    def test_all_defer_defers_the_whole_round(self):
        breaker = CircuitBreakerConfig(
            failure_threshold=1, cooldown_seconds=500.0
        )
        router = self._router(
            [
                BackendSpec(name="a", latency=FAST, breaker=breaker),
                BackendSpec(name="b", latency=SLOW, breaker=breaker),
            ]
        )
        assert router.before_round(0.0) is None
        for backend in router.backends:
            backend.breaker.record_outage()
            backend.breaker.note_time(10.0)
        assert router.before_round(20.0) == pytest.approx(510.0)

    def test_breaker_summary_forms(self):
        router = self._router(
            [
                BackendSpec(name="a", latency=FAST),
                BackendSpec(name="b", latency=SLOW),
            ]
        )
        assert router.breaker_summary() == "none"
        breaker = CircuitBreakerConfig(failure_threshold=1)
        router = self._router(
            [
                BackendSpec(name="a", latency=FAST, breaker=breaker),
                BackendSpec(name="b", latency=SLOW, breaker=breaker),
            ]
        )
        assert router.breaker_summary() == "closed"
        router.backends[1].breaker.record_outage()
        router.backends[1].breaker.note_time(5.0)
        assert router.breaker_summary() == "b:open"

    def test_outage_trio_preset_arms_the_failover_demo(self):
        fleet = backend_preset_by_name("outage-trio")
        stormy = [s for s in fleet if s.fault_profile is not None]
        assert [s.name for s in stormy] == ["balanced"]
        assert all(s.breaker is not None for s in fleet)
        replaced = dataclasses.replace(stormy[0], fault_profile=None)
        assert replaced.latency == mturk_car_latency()


class TestResolveFleet:
    def test_single_platform_arguments_become_a_solo_spec(self):
        breaker = CircuitBreakerConfig(failure_threshold=2)
        faults = FaultProfile(drop_prob=0.1)
        (spec,) = resolve_fleet(
            None, latency=FAST, fault_profile=faults, breaker_config=breaker
        )
        assert spec == BackendSpec(
            name=SOLO_BACKEND_NAME,
            latency=FAST,
            fault_profile=faults,
            breaker=breaker,
        )
