"""Pinned eDP and bounded-rounds plans.

``golden/plan_pins.json`` holds, for a grid of latency models, collection
sizes ``c_0`` and budget multiples, the full :class:`TDPPlan` of
:func:`solve_expected_min_latency` and of
:func:`solve_min_latency_bounded_rounds` (several round caps): the
sequence, the total latency (exact float), the questions used and every
per-row frontier size.  A case with no plan pins the error message
instead.  Any change to the frontier DP that alters a single plan, a
single float or a single frontier size shows up here.

To regenerate the snapshot after an *intentional* behaviour change::

    PYTHONPATH=src python tests/core/test_plan_pins.py

then review the JSON diff like any other code change.
"""

import json
import pathlib

import pytest

from repro.core import expected
from repro.core.expected import solve_expected_min_latency
from repro.core.latency import LinearLatency, PowerLawLatency
from repro.core.tdp import solve_min_latency_bounded_rounds
from repro.errors import InvalidParameterError

PINS_PATH = pathlib.Path(__file__).parent / "golden" / "plan_pins.json"

LATENCIES = {
    "linear-mturk": LinearLatency(239, 0.06),
    "linear-steep": LinearLatency(100, 1.0),
    "power-0.5": PowerLawLatency(239, 0.06, 0.5),
    "power-1.5": PowerLawLatency(120, 3.0, 1.5),
}
SIZES = (1, 2, 9, 40, 90)
#: Budget multiples of c0; each budget is at least the minimum c0 - 1.
MULTIPLES = (0.0, 1.5, 3.0, 10.0)
ROUND_CAPS = (1, 2, 4)


def _shapes():
    for c0 in SIZES:
        budgets = sorted({max(c0 - 1, int(m * c0)) for m in MULTIPLES})
        for budget in budgets:
            yield c0, budget


def _pin(solve):
    try:
        plan = solve()
    except InvalidParameterError as error:
        return {"error": str(error)}
    return {
        "sequence": list(plan.sequence),
        "total_latency": plan.total_latency,
        "questions_used": plan.questions_used,
        "frontier_sizes": list(plan.frontier_sizes),
    }


def compute_pins(name):
    """The pins of one latency model, keyed ``<model>/<solver>/c0/b[/cap]``."""
    latency = LATENCIES[name]
    pins = {}
    for c0, budget in _shapes():
        pins[f"{name}/edp/{c0}/{budget}"] = _pin(
            lambda: solve_expected_min_latency(c0, budget, latency)
        )
        for cap in ROUND_CAPS:
            pins[f"{name}/bounded/{c0}/{budget}/{cap}"] = _pin(
                lambda: solve_min_latency_bounded_rounds(
                    c0, budget, latency, cap
                )
            )
    return pins


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(LATENCIES))
def test_plans_match_the_pins(pins, name):
    expected = {key: pin for key, pin in pins.items() if key.startswith(f"{name}/")}
    assert compute_pins(name) == expected


def test_the_grid_reaches_errors_and_every_round_cap(pins):
    """The pins cover infeasible round caps as well as plans that use them."""
    bounded = [pin for key, pin in pins.items() if "/bounded/" in key]
    assert any("error" in pin for pin in bounded)
    rounds = {len(pin["sequence"]) - 1 for pin in bounded if "sequence" in pin}
    assert set(ROUND_CAPS) <= rounds


def test_edp_rows_are_feasible_at_the_least_budget():
    """Every eDP row has a point within ``b >= c0 - 1``: the step
    ``c -> c - 1`` costs one question, so ``c0 -> ... -> 1`` costs c0 - 1."""
    for c in range(2, 60):
        assert expected._expected_costs(c)[-1] == 1
    for c0 in range(2, 60):
        plan = solve_expected_min_latency(c0, c0 - 1, LATENCIES["linear-mturk"])
        assert plan.questions_used <= c0 - 1
        assert all(plan.frontier_sizes)


def test_edp_infeasible_budget_error():
    with pytest.raises(InvalidParameterError) as raised:
        solve_expected_min_latency(10, 8, LATENCIES["linear-mturk"])
    assert str(raised.value) == "budget 8 < c0 - 1 = 9: infeasible"


if __name__ == "__main__":
    pins = {}
    for name in sorted(LATENCIES):
        pins.update(compute_pins(name))
    # One pin per line, so a change reads as a line diff.
    lines = [f"{json.dumps(key)}: {json.dumps(pins[key])}" for key in sorted(pins)]
    PINS_PATH.parent.mkdir(parents=True, exist_ok=True)
    PINS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {PINS_PATH}")
