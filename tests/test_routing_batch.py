"""Property tests: ``allocate_batch`` must replay ``allocate`` exactly.

The batched engine is only allowed to exist because every router's
batch path is equivalent, step for step, to its scalar path — these
tests pin that contract on randomized demand/price/limit tensors,
including limit regimes tight enough to force the greedy spill and the
beyond-preference fallback.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InfeasibleAllocationError
from repro.routing import (
    BaselineProximityRouter,
    JointOptimizationRouter,
    PriceConsciousRouter,
    RoutingProblem,
    StaticSingleHubRouter,
    batch_allocate,
    greedy_fill,
    greedy_fill_batch,
)
from repro.traffic.clusters import akamai_like_deployment

ROUTER_KINDS = ("static", "baseline", "price", "joint")

#: Total-limit margin over peak national demand; 1.02 forces heavy
#: spill (barely feasible), inf never constrains.
TIGHTNESS = (1.02, 1.3, 3.0, np.inf)


@lru_cache(maxsize=1)
def _problem() -> RoutingProblem:
    return RoutingProblem(akamai_like_deployment())


def _router(kind: str, threshold_km: float):
    problem = _problem()
    if kind == "static":
        return StaticSingleHubRouter(problem, 4)
    if kind == "baseline":
        return BaselineProximityRouter(problem)
    if kind == "price":
        return PriceConsciousRouter(problem, distance_threshold_km=threshold_km)
    return JointOptimizationRouter(problem, distance_threshold_km=threshold_km or None)


def _inputs(seed: int, n_steps: int, tightness: float):
    problem = _problem()
    rng = np.random.default_rng(seed)
    demand = rng.random((n_steps, problem.n_states)) * rng.choice([1e3, 3e4, 2e5])
    prices = rng.random((n_steps, problem.n_clusters)) * 120.0 + 15.0
    if np.isinf(tightness):
        limits = np.full(problem.n_clusters, np.inf)
    else:
        # Uneven per-cluster ceilings that sum to `tightness` times the
        # peak step's demand, so some clusters fill long before others
        # but every step stays feasible.
        shares = 0.25 + rng.random(problem.n_clusters)
        shares /= shares.sum()
        limits = shares * float(demand.sum(axis=1).max()) * tightness
    return demand, prices, limits


def _assert_batch_replays_scalar(router, demand, prices, limits):
    """``batch_allocate`` — and the router's own batch form, which it
    skips for a single float64 step — equal the scalar calls bitwise."""
    try:
        reference = np.stack(
            [router.allocate(demand[t], prices[t], limits) for t in range(len(demand))]
        )
    except InfeasibleAllocationError:
        with pytest.raises(InfeasibleAllocationError):
            batch_allocate(router, demand, prices, limits)
        return
    np.testing.assert_array_equal(batch_allocate(router, demand, prices, limits), reference)
    np.testing.assert_array_equal(router.allocate_batch(demand, prices, limits), reference)


@pytest.mark.parametrize("kind", ROUTER_KINDS)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_steps=st.sampled_from((1, 6)),
    tightness=st.sampled_from(TIGHTNESS),
    threshold_km=st.sampled_from((0.0, 800.0, 1500.0, 5000.0)),
)
@settings(max_examples=25, deadline=None)
def test_allocate_batch_matches_per_step(kind, seed, n_steps, tightness, threshold_km):
    router = _router(kind, threshold_km)
    _assert_batch_replays_scalar(router, *_inputs(seed, n_steps, tightness))


@pytest.mark.parametrize("kind", ROUTER_KINDS)
def test_allocate_batch_matches_per_step_big(kind):
    """One larger deterministic batch per router (spill-heavy limits),
    plus a single step of the same inputs."""
    router = _router(kind, 1500.0)
    for n_steps in (96, 1):
        _assert_batch_replays_scalar(router, *_inputs(2009, n_steps, 1.05))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_greedy_fill_batch_matches_scalar(seed):
    """The batched fill replays the scalar fill on shared orders."""
    rng = np.random.default_rng(seed)
    n_steps, n_states, n_clusters = 5, 8, 4
    demand = rng.random((n_steps, n_states)) * 50.0
    limits = np.full(n_clusters, float(demand.sum(axis=1).max()) / 2.5)
    orders = np.stack([rng.permutation(n_clusters) for _ in range(n_states)])
    reference = np.stack(
        [
            greedy_fill(demand[t], [orders[s] for s in range(n_states)], limits)
            for t in range(n_steps)
        ]
    )
    batch = greedy_fill_batch(demand, orders, limits)
    np.testing.assert_allclose(batch, reference, rtol=0.0, atol=1e-9)


def test_batch_fallback_shim_preserves_order():
    """Routers without allocate_batch get sequential per-step calls."""

    calls = []

    class Recorder:
        def allocate(self, demand, prices, limits):
            calls.append(float(prices[0]))
            out = np.zeros((demand.shape[0], limits.shape[0]))
            out[:, 0] = demand
            return out

    demand = np.ones((4, 3))
    prices = np.arange(4, dtype=float)[:, None] * np.ones((4, 2))
    limits = np.full(2, np.inf)
    out = batch_allocate(Recorder(), demand, prices, limits)
    assert calls == [0.0, 1.0, 2.0, 3.0]
    assert out.shape == (4, 3, 2)
    assert np.all(out[:, :, 0] == 1.0)


class TestGreedyFillFallbackOrder:
    def test_fallback_prefers_listed_then_headroom(self):
        # State lists only cluster 0 (capacity 5); the 7 leftover hits
        # spill to unlisted clusters by descending headroom.
        demand = np.array([12.0])
        orders = [np.array([0])]
        limits = np.array([5.0, 30.0, 10.0])
        alloc = greedy_fill(demand, orders, limits)
        assert alloc[0, 0] == 5.0
        assert alloc[0, 1] == 7.0
        assert alloc[0, 2] == 0.0

    def test_fallback_headroom_tie_breaks_to_lower_index(self):
        demand = np.array([12.0])
        orders = [np.array([0])]
        limits = np.array([5.0, 10.0, 10.0])
        alloc = greedy_fill(demand, orders, limits)
        # Clusters 1 and 2 tie on headroom; the lower index wins.
        assert alloc[0, 1] == 7.0
        assert alloc[0, 2] == 0.0
