"""Per-backend labeled metrics series (satellite: exposition contract).

The router exports ``backend.*`` series with a ``backend`` label per
configured backend.  The contract under test: label values are escaped
per the OpenMetrics ABNF (backslash, double-quote, newline), and series
cardinality is bounded — exactly one series per configured backend per
instrument, no matter how many rounds are routed.
"""

import re

import numpy as np
import pytest

from repro.core.latency import LinearLatency
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.multibackend import (
    BackendSpec,
    CapacityAwareRouter,
    build_backends,
)
from repro.obs.metrics import get_registry, labeled_name
from repro.obs.openmetrics import render_openmetrics

# Newlines are rejected at the BackendSpec level (tested elsewhere); the
# escaper still has to survive quotes and backslashes in real names.
AWKWARD_NAMES = ['we"ird\\', "back\\slash", "plain"]


def _routed_registry(names, rounds=3):
    """Run *rounds* routed rounds over a fleet named *names*."""
    registry = get_registry()
    registry.reset()
    # reset() keeps instruments registered; drop them so series from a
    # previous fleet cannot leak into this test's cardinality counts.
    with registry._lock:
        registry._instruments.clear()
    truth = GroundTruth.random(20, np.random.default_rng((0, 0)))
    # Tight capacities force the 8-question round to split, so every
    # backend in the fleet carries traffic (and therefore gets a series).
    specs = [
        BackendSpec(
            name=name,
            latency=LinearLatency(100.0 + 10 * i, 0.1),
            capacity=3,
        )
        for i, name in enumerate(names)
    ]
    router = CapacityAwareRouter(build_backends(specs, truth, 0))
    questions = [(i, i + 10) for i in range(8)]
    for tick in range(rounds):
        router.post_round(questions, [(0, len(questions))], now=float(tick), tick=tick)
    return registry


class TestLabelEscaping:
    def test_label_values_are_escaped(self):
        name = labeled_name("backend.rounds", {"backend": 'we"ird\\'})
        assert name == 'backend.rounds{backend="we\\"ird\\\\"}'
        name = labeled_name("backend.rounds", {"backend": "new\nline"})
        assert name == 'backend.rounds{backend="new\\nline"}'

    def test_awkward_backend_names_render_and_parse(self):
        registry = _routed_registry(AWKWARD_NAMES)
        rendered = render_openmetrics(registry.snapshot())
        # Every exposition line is a comment or `name{labels} value` with
        # no raw newline/quote leaking out of a label value.
        line_re = re.compile(
            r"^(# (TYPE|EOF).*|[a-zA-Z_:][a-zA-Z0-9_:]*"
            r'(\{([a-zA-Z_]+="(\\.|[^"\\])*",?)+\})? [^ ]+)$'
        )
        for line in rendered.rstrip("\n").split("\n"):
            assert line_re.match(line), f"unparseable line: {line!r}"
        assert 'backend="we\\"ird\\\\"' in rendered
        assert 'backend="back\\\\slash"' in rendered
        assert 'backend="plain"' in rendered

    def test_labels_are_sorted_for_stable_series_identity(self):
        assert labeled_name("x", {"b": "2", "a": "1"}) == labeled_name(
            "x", dict([("a", "1"), ("b", "2")])
        )


class TestCardinality:
    @pytest.mark.parametrize("n_backends", [1, 3])
    def test_one_series_per_configured_backend(self, n_backends):
        names = [f"backend-{i}" for i in range(n_backends)]
        registry = _routed_registry(names, rounds=5)
        rendered = render_openmetrics(registry.snapshot())
        for instrument in ("backend_rounds_total",
                           "backend_questions_posted_total"):
            series = [
                line
                for line in rendered.split("\n")
                if line.startswith(f"{instrument}{{")
            ]
            assert len(series) == n_backends
        latency_counts = [
            line
            for line in rendered.split("\n")
            if line.startswith("backend_round_latency_count{")
        ]
        assert len(latency_counts) == n_backends

    def test_rounds_accumulate_without_new_series(self):
        few = render_openmetrics(
            _routed_registry(["a", "b"], rounds=2).snapshot()
        )
        many = render_openmetrics(
            _routed_registry(["a", "b"], rounds=10).snapshot()
        )

        def series_names(rendered):
            return sorted(
                line.split(" ")[0]
                for line in rendered.rstrip("\n").split("\n")
                if line.startswith("backend_")
            )

        assert series_names(few) == series_names(many)
        assert 'backend_rounds_total{backend="a"} 10' in many

    def test_outages_only_export_for_outaged_backends(self):
        registry = _routed_registry(["a", "b"])
        rendered = render_openmetrics(registry.snapshot())
        assert "backend_outages_total" not in rendered
