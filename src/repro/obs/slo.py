"""Deterministic SLO engine: objectives, burn-rate alerts, health.

The telemetry pipeline measures; this module *watches*.  An
:class:`SLOEngine` evaluates three kinds of declarative rules once per
scheduler tick:

* :class:`SLOTarget` — an objective over a rolling tick window, e.g.
  "95% of finished queries meet their deadline over the last 200 ticks";
* :class:`BurnRateRule` — the SRE multi-window alert: the *burn rate* is
  the observed bad fraction divided by the SLO's error budget
  (``1 - target``), and an alert fires only when **both** a fast and a
  slow window burn at or above the threshold (fast catches the incident,
  slow suppresses blips), resolving once the fast window recovers;
* :class:`ThresholdRule` — a hysteresis comparator over any scheduler
  signal (``queue_wait_p95``, ``breaker_open``, ``brownout_level``,
  ``hedge_waste``, ...), sharing
  :func:`repro.obs.stats.escalation_step` with the brownout controller.

Determinism is the design constraint: the engine consumes only the
per-tick :class:`~repro.service.telemetry.TickSample` counters and a
scheduler-built signals mapping — both derived from journaled,
snapshot-restored state — never wall clocks or the process-global
metrics registry.  Feeding the same tick sequence therefore reproduces
the same :class:`AlertTransition` sequence bit for bit, which is what
lets crash recovery replay alert history exactly
(:mod:`repro.service.journal` snapshots :meth:`SLOEngine.state_dict`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple

from repro.errors import InvalidParameterError
from repro.obs.stats import escalation_step

__all__ = [
    "ALERT_SEVERITIES",
    "SLO_OBJECTIVES",
    "SLOTarget",
    "BurnRateRule",
    "ThresholdRule",
    "SLOConfig",
    "AlertTransition",
    "HealthStatus",
    "SLOEngine",
    "default_slo_config",
    "slo_config_from_dict",
]

#: Alert severities, mildest first.  ``critical`` drives the aggregate
#: health to ``critical``; anything else active means ``degraded``.
ALERT_SEVERITIES = ("warning", "critical")

#: What an :class:`SLOTarget` counts as good/bad per tick:
#: ``deadline`` — deadline-met vs deadline-breached terminals;
#: ``queries`` — completed vs degraded-or-shed terminals.
SLO_OBJECTIVES = ("deadline", "queries")


@dataclass(frozen=True)
class SLOTarget:
    """An objective over a rolling tick window.

    Attributes:
        name: unique handle, referenced by :class:`BurnRateRule`.
        objective: one of :data:`SLO_OBJECTIVES`.
        target: required good fraction, in ``(0, 1)``.
        window: rolling window length in ticks.
    """

    name: str
    objective: str = "deadline"
    target: float = 0.95
    window: int = 200

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidParameterError("SLO target needs a non-empty name")
        if self.objective not in SLO_OBJECTIVES:
            raise InvalidParameterError(
                f"unknown SLO objective {self.objective!r}; "
                f"expected one of {SLO_OBJECTIVES}"
            )
        if not 0.0 < self.target < 1.0:
            raise InvalidParameterError(
                f"SLO target must be in (0, 1), got {self.target}"
            )
        if self.window < 1:
            raise InvalidParameterError(
                f"SLO window must be >= 1 tick, got {self.window}"
            )


@dataclass(frozen=True)
class BurnRateRule:
    """A multi-window burn-rate alert over one :class:`SLOTarget`.

    Attributes:
        name: unique alert name.
        slo: the :attr:`SLOTarget.name` this rule watches.
        fast_window: short window (ticks) — detects, and resolves.
        slow_window: long window (ticks) — confirms, suppressing blips.
        burn_threshold: fire when both windows burn at or above this
            multiple of the error budget; resolve when the fast window
            drops below it.
        severity: one of :data:`ALERT_SEVERITIES`.
    """

    name: str
    slo: str
    fast_window: int = 12
    slow_window: int = 72
    burn_threshold: float = 2.0
    severity: str = "critical"

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidParameterError("burn-rate rule needs a name")
        if self.fast_window < 1 or self.slow_window < 1:
            raise InvalidParameterError(
                "burn-rate windows must be >= 1 tick, got "
                f"{self.fast_window}/{self.slow_window}"
            )
        if self.fast_window >= self.slow_window:
            raise InvalidParameterError(
                f"fast window ({self.fast_window}) must be shorter than "
                f"the slow window ({self.slow_window})"
            )
        if not self.burn_threshold > 0:
            raise InvalidParameterError(
                f"burn threshold must be > 0, got {self.burn_threshold}"
            )
        if self.severity not in ALERT_SEVERITIES:
            raise InvalidParameterError(
                f"unknown severity {self.severity!r}; "
                f"expected one of {ALERT_SEVERITIES}"
            )


@dataclass(frozen=True)
class ThresholdRule:
    """A hysteresis comparator over one scheduler signal.

    Fires when the signal reaches *threshold*; resolves once it drops
    below ``threshold * clear_fraction`` — the same escalate/clear band
    as the brownout controller, via
    :func:`repro.obs.stats.escalation_step` with ``max_level=1``.

    Attributes:
        name: unique alert name.
        signal: key into the scheduler-built signals mapping
            (``queue_wait_p95``, ``breaker_open``, ``brownout_level``,
            ``hedge_waste``, ``queue_depth``, ...).
        threshold: fire at or above this value.
        clear_fraction: hysteresis band, in ``(0, 1]``.
        severity: one of :data:`ALERT_SEVERITIES`.
    """

    name: str
    signal: str
    threshold: float
    clear_fraction: float = 0.75
    severity: str = "warning"

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidParameterError("threshold rule needs a name")
        if not self.signal:
            raise InvalidParameterError(
                f"threshold rule {self.name!r} needs a signal"
            )
        if not self.threshold > 0:
            raise InvalidParameterError(
                f"threshold must be > 0, got {self.threshold}"
            )
        if not 0.0 < self.clear_fraction <= 1.0:
            raise InvalidParameterError(
                f"clear_fraction must be in (0, 1], got {self.clear_fraction}"
            )
        if self.severity not in ALERT_SEVERITIES:
            raise InvalidParameterError(
                f"unknown severity {self.severity!r}; "
                f"expected one of {ALERT_SEVERITIES}"
            )

    @property
    def clear_threshold(self) -> float:
        """The value below which an active alert resolves."""
        return self.threshold * self.clear_fraction


@dataclass(frozen=True)
class SLOConfig:
    """Declarative rule set for one :class:`SLOEngine`.

    Attributes:
        targets: the objectives burn-rate rules draw on.
        burn_rates: multi-window burn alerts (each referencing a target).
        thresholds: signal comparators.
        ring: flight-recorder ring capacity (entries).
        bundle_dir: when set, the scheduler snapshots a debug bundle
            here every time an alert fires.
    """

    targets: Tuple[SLOTarget, ...] = ()
    burn_rates: Tuple[BurnRateRule, ...] = ()
    thresholds: Tuple[ThresholdRule, ...] = ()
    ring: int = 256
    bundle_dir: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "burn_rates", tuple(self.burn_rates))
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        if self.ring < 1:
            raise InvalidParameterError(
                f"flight-recorder ring must hold >= 1 entry, got {self.ring}"
            )
        names = [t.name for t in self.targets]
        if len(set(names)) != len(names):
            raise InvalidParameterError("duplicate SLO target names")
        alerts = [r.name for r in self.burn_rates] + [
            r.name for r in self.thresholds
        ]
        if len(set(alerts)) != len(alerts):
            raise InvalidParameterError("duplicate alert rule names")
        known = set(names)
        for rule in self.burn_rates:
            if rule.slo not in known:
                raise InvalidParameterError(
                    f"burn-rate rule {rule.name!r} references unknown "
                    f"SLO target {rule.slo!r}"
                )


@dataclass(frozen=True)
class AlertTransition:
    """One alert firing or resolving, in tick order.

    Attributes:
        rule: the alert rule's name.
        action: ``"fired"`` or ``"resolved"``.
        severity: the rule's severity.
        value: the burn rate or signal value that drove the transition.
        tick: the scheduler tick it happened on.
    """

    rule: str
    action: str
    severity: str
    value: float
    tick: int


@dataclass(frozen=True)
class HealthStatus:
    """Aggregate service health derived from the active alerts.

    ``state`` is ``"ok"`` (nothing active), ``"degraded"`` (active
    alerts, none critical) or ``"critical"``; ``reasons`` lists the
    active alert names, sorted.
    """

    state: str
    reasons: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "reasons", tuple(self.reasons))

    def describe(self) -> str:
        """``"ok"`` or ``"critical (breaker-open, deadline-burn)"``."""
        if not self.reasons:
            return self.state
        return f"{self.state} ({', '.join(self.reasons)})"


class SLOEngine:
    """Tick-driven rule evaluator; pure function of the fed samples.

    Call :meth:`observe` once per tick with the tick's
    :class:`~repro.service.telemetry.TickSample` and the scheduler's
    signals mapping; it returns the tick's :class:`AlertTransition`
    list (possibly empty).  Everything the engine remembers — rolling
    windows, active alerts, threshold levels, totals — round-trips
    through :meth:`state_dict`, so crash recovery resumes mid-alert.
    """

    def __init__(self, config: SLOConfig) -> None:
        self.config = config
        self._targets: Dict[str, SLOTarget] = {
            t.name: t for t in config.targets
        }
        self._depth: Dict[str, int] = {}
        for target in config.targets:
            windows = [target.window] + [
                r.slow_window for r in config.burn_rates if r.slo == target.name
            ]
            self._depth[target.name] = max(windows)
        #: Per target, running (good, bad) totals after each of the last
        #: ``depth`` ticks, led by the totals just before them — so a
        #: window's sum is the difference of two entries.
        self._totals: Dict[str, Deque[Tuple[int, int]]] = {
            name: deque([(0, 0)], maxlen=depth + 1)
            for name, depth in self._depth.items()
        }
        self._prev: Optional[Dict[str, int]] = None
        # name -> {"severity": str, "since": tick} in firing order.
        self._active: Dict[str, Dict[str, Any]] = {}
        self._levels: Dict[str, int] = {r.name: 0 for r in config.thresholds}
        #: Lifetime alert transitions, either direction.
        self.fired_total = 0
        self.resolved_total = 0

    # -- windows -------------------------------------------------------
    def burn_rate(self, slo: str, window: Optional[int] = None) -> float:
        """Burn rate of *slo* over its last *window* ticks.

        The bad fraction over the window divided by the error budget
        ``1 - target``; ``0.0`` when the window saw no terminals.
        *window* defaults to the target's own window.
        """
        target = self._targets.get(slo)
        if target is None:
            raise InvalidParameterError(f"unknown SLO target {slo!r}")
        span = target.window if window is None else window
        totals = self._totals[slo]
        good_then, bad_then = totals[max(0, len(totals) - 1 - span)]
        good = totals[-1][0] - good_then
        bad = totals[-1][1] - bad_then
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - target.target)

    def active_alerts(self) -> Dict[str, Dict[str, Any]]:
        """The active alerts: ``{name: {"severity", "since"}}``."""
        return {name: dict(info) for name, info in self._active.items()}

    def health(self) -> HealthStatus:
        """Aggregate ok/degraded/critical with the active alert names."""
        if not self._active:
            return HealthStatus(state="ok")
        reasons = tuple(sorted(self._active))
        if any(
            info["severity"] == "critical" for info in self._active.values()
        ):
            return HealthStatus(state="critical", reasons=reasons)
        return HealthStatus(state="degraded", reasons=reasons)

    # -- driving -------------------------------------------------------
    def observe(
        self, sample: Any, signals: Mapping[str, float]
    ) -> List[AlertTransition]:
        """Feed one tick; returns the transitions it caused, in order.

        *sample* is the tick's :class:`TickSample` (only its cumulative
        terminal counters are read); *signals* is the scheduler-built
        mapping threshold rules compare against.
        """
        counters = {
            "deadline_met": int(sample.deadline_met),
            "deadline_breached": int(sample.deadline_breached),
            "completed": int(sample.completed),
            "degraded": int(sample.degraded),
            "shed": int(sample.shed),
        }
        prev = self._prev if self._prev is not None else dict.fromkeys(
            counters, 0
        )
        delta = {key: counters[key] - prev.get(key, 0) for key in counters}
        self._prev = counters
        for name, target in self._targets.items():
            if target.objective == "deadline":
                good, bad = delta["deadline_met"], delta["deadline_breached"]
            else:
                good = delta["completed"]
                bad = delta["degraded"] + delta["shed"]
            totals = self._totals[name]
            totals.append((totals[-1][0] + good, totals[-1][1] + bad))

        tick = int(sample.tick)
        transitions: List[AlertTransition] = []
        for rule in self.config.burn_rates:
            fast = self.burn_rate(rule.slo, rule.fast_window)
            slow = self.burn_rate(rule.slo, rule.slow_window)
            if rule.name not in self._active:
                if (
                    fast >= rule.burn_threshold
                    and slow >= rule.burn_threshold
                ):
                    transitions.append(self._fire(rule.name, rule.severity,
                                                  fast, tick))
            elif fast < rule.burn_threshold:
                transitions.append(self._resolve(rule.name, rule.severity,
                                                 fast, tick))
        for rule in self.config.thresholds:
            value = float(signals.get(rule.signal, 0.0))
            change = escalation_step(
                value,
                self._levels[rule.name],
                threshold=rule.threshold,
                clear_threshold=rule.clear_threshold,
                max_level=1,
            )
            if change is None:
                continue
            self._levels[rule.name] = change[1]
            if change[1] > change[0]:
                transitions.append(self._fire(rule.name, rule.severity,
                                              value, tick))
            else:
                transitions.append(self._resolve(rule.name, rule.severity,
                                                 value, tick))
        return transitions

    def _fire(
        self, name: str, severity: str, value: float, tick: int
    ) -> AlertTransition:
        self._active[name] = {"severity": severity, "since": tick}
        self.fired_total += 1
        return AlertTransition(
            rule=name, action="fired", severity=severity,
            value=value, tick=tick,
        )

    def _resolve(
        self, name: str, severity: str, value: float, tick: int
    ) -> AlertTransition:
        self._active.pop(name, None)
        self.resolved_total += 1
        return AlertTransition(
            rule=name, action="resolved", severity=severity,
            value=value, tick=tick,
        )

    # -- snapshot / restore -------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialize the mutable engine state for a journal snapshot."""
        return {
            "history": {
                name: [
                    [good - prev_good, bad - prev_bad]
                    for (prev_good, prev_bad), (good, bad) in zip(
                        totals, list(totals)[1:]
                    )
                ]
                for name, totals in self._totals.items()
            },
            "prev": dict(self._prev) if self._prev is not None else None,
            "active": {
                name: dict(info) for name, info in self._active.items()
            },
            "levels": dict(self._levels),
            "fired": self.fired_total,
            "resolved": self.resolved_total,
        }

    def load_state_dict(self, payload: Dict[str, Any]) -> None:
        """Restore the counterpart of :meth:`state_dict`."""
        history = payload.get("history", {})
        for name, totals in self._totals.items():
            totals.clear()
            totals.append((0, 0))
            for good, bad in history.get(name, []):
                totals.append(
                    (totals[-1][0] + int(good), totals[-1][1] + int(bad))
                )
        prev = payload.get("prev")
        self._prev = (
            {key: int(value) for key, value in prev.items()}
            if prev is not None else None
        )
        self._active = {
            name: {"severity": str(info["severity"]),
                   "since": int(info["since"])}
            for name, info in payload.get("active", {}).items()
        }
        levels = payload.get("levels", {})
        self._levels = {
            rule.name: int(levels.get(rule.name, 0))
            for rule in self.config.thresholds
        }
        self.fired_total = int(payload.get("fired", 0))
        self.resolved_total = int(payload.get("resolved", 0))


def default_slo_config(
    *,
    ring: int = 256,
    bundle_dir: Optional[str] = None,
) -> SLOConfig:
    """The stock rule set ``tdp-repro serve --slo`` arms.

    A 95% deadline-attainment SLO and a 90% query-success SLO over 200
    ticks, a critical multi-window burn alert on the deadline SLO, and
    warning thresholds on the breaker, brownout and hedge-waste signals.
    """
    return SLOConfig(
        targets=(
            SLOTarget(name="deadline-attainment", objective="deadline",
                      target=0.95, window=200),
            SLOTarget(name="query-success", objective="queries",
                      target=0.90, window=200),
        ),
        burn_rates=(
            BurnRateRule(name="deadline-burn", slo="deadline-attainment",
                         fast_window=12, slow_window=72,
                         burn_threshold=2.0, severity="critical"),
        ),
        thresholds=(
            ThresholdRule(name="breaker-open", signal="breaker_open",
                          threshold=1.0, severity="warning"),
            ThresholdRule(name="brownout-active", signal="brownout_level",
                          threshold=1.0, severity="warning"),
            ThresholdRule(name="hedge-waste", signal="hedge_waste",
                          threshold=50.0, severity="warning"),
        ),
        ring=ring,
        bundle_dir=bundle_dir,
    )


def slo_config_from_dict(payload: Dict[str, Any]) -> SLOConfig:
    """Rebuild an :class:`SLOConfig` from its ``dataclasses.asdict``."""
    data = dict(payload)
    data["targets"] = tuple(
        SLOTarget(**t) if isinstance(t, dict) else t
        for t in data.get("targets", ())
    )
    data["burn_rates"] = tuple(
        BurnRateRule(**r) if isinstance(r, dict) else r
        for r in data.get("burn_rates", ())
    )
    data["thresholds"] = tuple(
        ThresholdRule(**r) if isinstance(r, dict) else r
        for r in data.get("thresholds", ())
    )
    return SLOConfig(**data)
