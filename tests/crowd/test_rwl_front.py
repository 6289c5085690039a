"""Differential tests of the Reliable Worker Layer's array front half.

:class:`tests.crowd.rwl_reference.ReferenceRWL` keeps the layer's former
``ask`` front half, retry loop and peel-only cycle check.  Two stacks
built from the same seeds, one with the layer and one with the reference,
must return equal results and leave every random stream (the layer's,
the platform's and the fault layer's) in the same state, whatever the
rows: repeats, reversed pairs, element ids spread up to 10^5 or packed
together, on a perfect, a noisy and a lossy platform at repetition 1
and 3.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.error_models import UniformError
from repro.crowd.faults import FaultyPlatform, RetryPolicy, fault_profile_by_name
from repro.crowd.ground_truth import GroundTruth
from repro.crowd.platform import SimulatedPlatform
from repro.crowd.rwl import ReliableWorkerLayer, _acyclic
from repro.errors import InvalidParameterError, PlatformError
from repro.obs.profiling import profiled
from tests.crowd.rwl_reference import ReferenceRWL, reference_acyclic

N_ELEMENTS = 100_000
TRUTH = GroundTruth.random(N_ELEMENTS, np.random.default_rng(2024))
PLATFORMS = ("perfect", "noisy", "lossy")


def _stack(layer, kind, seed, repetition):
    """A layer of class *layer* over a fresh platform of *kind*."""
    error_model = UniformError(0.3) if kind != "perfect" else None
    platform = SimulatedPlatform(
        TRUTH, np.random.default_rng(seed), error_model=error_model
    )
    policy = None
    if kind == "lossy":
        platform = FaultyPlatform(
            platform, fault_profile_by_name("lossy"), np.random.default_rng(seed + 1)
        )
        policy = RetryPolicy()
    return layer(
        platform,
        np.random.default_rng(seed + 2),
        repetition=repetition,
        retry_policy=policy,
    )


def _states(rwl):
    platform = rwl.platform
    states = [rwl._rng.bit_generator.state]
    if isinstance(platform, FaultyPlatform):
        states.append(platform._fault_rng.bit_generator.state)
        platform = platform.inner
    states.append(platform._rng.bit_generator.state)
    return states


@st.composite
def question_rows(draw):
    """Rows over a few elements, spread up to 10^5 or packed in a window
    of consecutive ids, with repeats and reversed pairs."""
    if draw(st.booleans()):
        elements = draw(
            st.lists(
                st.integers(0, N_ELEMENTS - 1), min_size=2, max_size=12, unique=True
            )
        )
    else:
        start = draw(st.integers(0, N_ELEMENTS - 12))
        elements = list(range(start, start + draw(st.integers(2, 12))))
    pair = st.tuples(st.sampled_from(elements), st.sampled_from(elements)).filter(
        lambda p: p[0] != p[1]
    )
    return draw(st.lists(pair, max_size=40))


class TestAskMatchesTheReference:
    @settings(max_examples=150, deadline=None)
    @given(
        rounds=st.lists(question_rows(), min_size=1, max_size=3),
        kind=st.sampled_from(PLATFORMS),
        repetition=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**16),
        as_array=st.booleans(),
    )
    def test_results_and_random_streams_match(
        self, rounds, kind, repetition, seed, as_array
    ):
        layer = _stack(ReliableWorkerLayer, kind, seed, repetition)
        reference = _stack(ReferenceRWL, kind, seed, repetition)
        for rows in rounds:
            questions = np.array(rows, dtype=np.int64).reshape(-1, 2) if as_array else rows
            result = layer.ask(questions)
            expected = reference.ask(questions)
            assert result == expected
            for name in ("questions", "winners", "unanswered"):
                got, want = getattr(result, name), getattr(expected, name)
                assert got.dtype == want.dtype and got.shape == want.shape
            assert _states(layer) == _states(reference)

    @pytest.mark.parametrize("kind", PLATFORMS)
    def test_a_service_sized_round_matches(self, kind):
        """Disjoint 4-cliques at ids far apart, as a tick posts them."""
        starts = np.arange(0, 90_000, 997)[:120]
        cliques = [
            (s + a, s + b) for s in starts.tolist() for a in range(4) for b in range(a + 1, 4)
        ]
        layer = _stack(ReliableWorkerLayer, kind, 5, 1)
        reference = _stack(ReferenceRWL, kind, 5, 1)
        assert layer.ask(cliques) == reference.ask(cliques)
        assert _states(layer) == _states(reference)


class TestRejections:
    @pytest.mark.parametrize("layer", [ReliableWorkerLayer, ReferenceRWL])
    def test_self_comparisons_are_rejected(self, layer):
        rwl = _stack(layer, "perfect", 0, 1)
        with pytest.raises(ValueError, match="with itself"):
            rwl.ask([(3, 4), (7, 7)])
        with pytest.raises(ValueError, match="with itself"):
            rwl.ask(np.array([[9, 9]]))

    @pytest.mark.parametrize("layer", [ReliableWorkerLayer, ReferenceRWL])
    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 2, 3)],
            [(1, 2), (3,)],
            np.array([[1.0, 2.0]]),
            np.array([1, 2, 3, 4]),
        ],
        ids=["three-wide", "ragged", "float", "flat"],
    )
    def test_malformed_rows_are_rejected(self, layer, rows):
        rwl = _stack(layer, "perfect", 0, 1)
        with pytest.raises(InvalidParameterError):
            rwl.ask(rows)

    def test_the_platform_and_the_truth_reject_what_they_did(self):
        platform = SimulatedPlatform(TRUTH, np.random.default_rng(0))
        with pytest.raises(PlatformError, match="self-comparison of element 5"):
            platform.post_batch([(1, 2), (5, 5)])
        with pytest.raises(InvalidParameterError, match="unknown element"):
            platform.post_batch([(1, N_ELEMENTS)])
        with pytest.raises(InvalidParameterError, match="unknown element"):
            platform.post_batch(np.array([[-1, 2]]))
        with pytest.raises(InvalidParameterError, match="itself"):
            TRUTH.winners([(0, 1), (4, 4)])
        with pytest.raises(InvalidParameterError, match="unknown element"):
            TRUTH.winners([(0, N_ELEMENTS + 3)])
        assert platform.stats.batches_posted == 0


def dfs_acyclic(winners, losers):
    """Whether the edges ``winners[i] -> losers[i]`` form no cycle, by a
    colouring depth-first search."""
    edges = {}
    for winner, loser in zip(winners.tolist(), losers.tolist()):
        edges.setdefault(winner, []).append(loser)
    colour = {}

    def visit(node):
        colour[node] = 1
        for nxt in edges.get(node, ()):
            state = colour.get(nxt, 0)
            if state == 1 or (state == 0 and not visit(nxt)):
                return False
        colour[node] = 2
        return True

    return all(colour.get(node, 0) == 2 or visit(node) for node in list(edges))


@st.composite
def answer_graphs(draw):
    """Edges over ``range(size)``: a DAG oriented by a hidden order, with
    some edges optionally reversed (which may close cycles)."""
    size = draw(st.integers(2, 30))
    order = draw(st.permutations(range(size)))
    rank = {element: i for i, element in enumerate(order)}
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            unique=True,
            max_size=60,
        )
    )
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    reverse = draw(st.booleans())
    winners, losers = [], []
    for (a, b), flip in zip(pairs, flips):
        winner, loser = (a, b) if rank[a] < rank[b] else (b, a)
        if reverse and flip:
            winner, loser = loser, winner
        winners.append(winner)
        losers.append(loser)
    return (
        np.array(winners, dtype=np.int64),
        np.array(losers, dtype=np.int64),
        size,
    )


class TestAcyclic:
    @settings(max_examples=400, deadline=None)
    @given(graph=answer_graphs())
    def test_matches_a_depth_first_search(self, graph):
        winners, losers, size = graph
        expected = dfs_acyclic(winners, losers)
        assert _acyclic(winners, losers, size) == expected
        assert reference_acyclic(winners, losers, size) == expected

    def test_an_acyclic_chain_fails_the_certificate_and_peels(self):
        """0 > 1 > 2 > 3: every element but the last won once, so the
        certificate cannot decide and the peel runs one pass per edge."""
        winners, losers = np.array([0, 1, 2]), np.array([1, 2, 3])
        with profiled(publish=False) as profiler:
            assert _acyclic(winners, losers, 4)
            peels = profiler.snapshot()["rwl.cycle_peels"]
        assert peels == 3

    def test_a_cycle_is_found_by_the_peel(self):
        winners, losers = np.array([0, 1, 2, 3]), np.array([1, 2, 0, 1])
        with profiled(publish=False) as profiler:
            assert not _acyclic(winners, losers, 4)
            assert profiler.snapshot()["rwl.cycle_peels"] == 2

    def test_clique_rounds_pass_the_certificate(self):
        """Disjoint error-free cliques never reach the peel."""
        rng = np.random.default_rng(0)
        winners, losers = [], []
        for start in range(0, 200, 8):
            order = start + rng.permutation(8)
            for i in range(8):
                for j in range(i + 1, 8):
                    winners.append(order[i])
                    losers.append(order[j])
        with profiled(publish=False) as profiler:
            assert _acyclic(np.array(winners), np.array(losers), 200)
            assert profiler.snapshot().get("rwl.cycle_peels", 0) == 0
