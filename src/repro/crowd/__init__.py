"""Simulated crowdsourcing substrate: ground truth, workers, platform, RWL."""

from repro.crowd.breaker import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerConfig,
    RoundDecision,
)
from repro.crowd.diurnal import DayNightCycle, DiurnalPlatform
from repro.crowd.error_models import (
    DistanceSensitiveError,
    ErrorModel,
    PerfectWorkers,
    UniformError,
)
from repro.crowd.faults import (
    FaultProfile,
    FaultStats,
    FaultyPlatform,
    RetryPolicy,
    available_fault_profiles,
    fault_profile_by_name,
)
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import BatchResult, Platform, SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer, RWLResult
from repro.crowd.workers import WorkerPoolConfig

__all__ = [
    "GroundTruth",
    "DayNightCycle",
    "DiurnalPlatform",
    "ErrorModel",
    "PerfectWorkers",
    "UniformError",
    "DistanceSensitiveError",
    "WorkerPoolConfig",
    "Platform",
    "SimulatedPlatform",
    "BatchResult",
    "FaultProfile",
    "FaultStats",
    "FaultyPlatform",
    "RetryPolicy",
    "available_fault_profiles",
    "fault_profile_by_name",
    "ReliableWorkerLayer",
    "RWLResult",
    "BreakerState",
    "CircuitBreaker",
    "CircuitBreakerConfig",
    "RoundDecision",
]
