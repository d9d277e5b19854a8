"""Property tests: ``allocate_batch`` must replay ``allocate`` exactly.

The batched engine is only allowed to exist because every router's
batch path is equivalent, step for step, to its scalar path — these
tests pin that contract on randomized demand/price/limit tensors,
including limit regimes tight enough to force the greedy spill and the
beyond-preference fallback.
"""

from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InfeasibleAllocationError
from repro.routing import base as routing_base
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
    np.testing.assert_array_equal(batch, reference)


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


#: Malformed ``batch_allocate`` inputs, each built from a valid
#: ``(demand, prices, limits)`` triple of ``T`` steps with shared limits.
BAD_SHAPES = {
    "demand_1d": lambda d, p, lim: (d[0], p, lim),
    "prices_wrong_steps": lambda d, p, lim: (d, p[:1] if len(p) > 1 else np.vstack([p, p]), lim),
    "prices_1d": lambda d, p, lim: (d, p[0], lim),
    "prices_extra_cluster": lambda d, p, lim: (d, np.hstack([p, p[:, :1]]), lim),
    "limits_wrong_steps": lambda d, p, lim: (d, p, np.tile(lim, (len(d) + 1, 1))),
    "limits_3d": lambda d, p, lim: (d, p, np.tile(lim, (len(d), 1))[:, :, None]),
    "limits_extra_cluster": lambda d, p, lim: (d, p, np.append(lim, lim[0])),
}


@pytest.mark.parametrize("bad", sorted(BAD_SHAPES))
@pytest.mark.parametrize("n_steps", (1, 3))
@pytest.mark.parametrize("kind", ("price", "baseline", "joint"))
def test_batch_allocate_rejects_bad_shapes(kind, n_steps, bad):
    """Shapes are checked before dispatch, on the batch path as well as
    the single-step shim: a batch router never sees, say, one price row
    for three steps."""
    demand, prices, limits = BAD_SHAPES[bad](*_inputs(7, n_steps, 1.3))
    with pytest.raises(ConfigurationError):
        batch_allocate(_router(kind, 1500.0), demand, prices, limits)


@pytest.mark.parametrize("field", ("limits", "demand"))
@pytest.mark.parametrize("n_steps", (1, 3))
@pytest.mark.parametrize("kind", ("price", "baseline", "joint"))
def test_batch_allocate_rejects_nan(kind, n_steps, field):
    """NaN in limits or demand is refused before either path runs. The
    scalar fill skipped a NaN limit and raised on the rest; the batched
    fill counted the row as unbounded and spread NaN into the takes."""
    problem = _problem()
    limits = np.full(problem.n_clusters, 1e5)
    limits[0] = np.nan
    limits[1] = 0.0
    rng = np.random.default_rng(11)
    demand = rng.random((n_steps, problem.n_states))
    demand *= 0.9 * problem.n_clusters * 1e5 / demand.sum(axis=1, keepdims=True)
    prices = rng.random((n_steps, problem.n_clusters)) * 120.0 + 15.0
    if field == "demand":
        limits[:2] = 1e5
        demand[-1, 3] = np.nan
    with pytest.raises(ConfigurationError, match="NaN"):
        batch_allocate(_router(kind, 1500.0), demand, prices, limits)


@pytest.mark.parametrize("shared", (True, False))
@pytest.mark.parametrize("kind", ("price", "baseline", "joint"))
def test_batch_allocate_empty_batch(kind, shared):
    """A zero-step batch returns an empty ``(0, n_states, n_clusters)``
    tensor, with shared limits and with per-step limits."""
    problem = _problem()
    n_states, n_clusters = problem.n_states, problem.n_clusters
    limits = np.full(n_clusters, 1e5) if shared else np.empty((0, n_clusters))
    out = batch_allocate(
        _router(kind, 1500.0), np.empty((0, n_states)), np.empty((0, n_clusters)), limits
    )
    assert out.shape == (0, n_states, n_clusters)


@contextmanager
def _walk(walk: str):
    """Pin ``greedy_fill_batch`` to one of its two walks for a block."""
    with pytest.MonkeyPatch.context() as patch:
        threshold = 1 if walk == "vectorised" else 10**9
        patch.setattr(routing_base, "_VECTOR_WALK_MIN_STEPS", threshold)
        yield


def _quantised_limits(rng, demand, n_clusters, shared):
    """Integer ceilings built to hit the walk's edge cases: zero limits,
    limits equal to an exact partial sum of one step's demand (so a
    ``remaining == headroom`` tie or an exact drain occurs), and one
    roomy cluster topping the total up to feasibility."""
    rows = 1 if shared else demand.shape[0]
    limits = np.zeros((rows, n_clusters))
    for t in range(rows):
        step = demand[t] if not shared else demand[int(rng.integers(len(demand)))]
        for c in range(n_clusters):
            mode = int(rng.integers(3))
            if mode == 1:
                pick = rng.random(step.shape[0]) < 0.4
                limits[t, c] = float(step[pick].sum())
            elif mode == 2:
                limits[t, c] = float(rng.integers(0, 12)) * float(step.max(initial=1.0))
        need = (demand.sum(axis=1).max() if shared else demand[t].sum()) - limits[t].sum()
        if need > 0:
            limits[t, int(rng.integers(n_clusters))] += need
    return limits[0] if shared else limits


@pytest.mark.parametrize("walk", ("per_step", "vectorised"))
@given(
    seed=st.integers(0, 2**31 - 1),
    n_steps=st.sampled_from((1, 2, 3, 8)),
    shared=st.booleans(),
    padded=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_greedy_fill_quantised_ties(walk, seed, n_steps, shared, padded):
    """Bitwise batch == scalar on integer inputs, where ties and exact
    drains are common: zero-demand states, zero limits, limits equal to
    exact partial sums; partial preference lists (padded with repeats
    of their first cluster for the batch form) reach the fallback."""
    rng = np.random.default_rng(seed)
    n_states = int(rng.integers(1, 9))
    n_clusters = int(rng.integers(1, 6))
    demand = rng.integers(0, 7, (n_steps, n_states)) * (rng.random((n_steps, n_states)) < 0.8)
    demand = demand.astype(float)
    limits = _quantised_limits(rng, demand, n_clusters, shared)
    perms = np.stack([rng.permutation(n_clusters) for _ in range(n_states)])
    listed = rng.integers(1, n_clusters + 1, n_states) if padded else np.full(n_states, n_clusters)
    lists = [perms[s, : listed[s]] for s in range(n_states)]
    matrix = np.where(np.arange(n_clusters)[None, :] >= listed[:, None], perms[:, :1], perms)
    step_limits = np.broadcast_to(limits, (n_steps, n_clusters))
    reference = np.stack([greedy_fill(demand[t], lists, step_limits[t]) for t in range(n_steps)])
    with _walk(walk):
        np.testing.assert_array_equal(greedy_fill_batch(demand, matrix, limits), reference)


@pytest.mark.parametrize("walk", ("per_step", "vectorised"))
@pytest.mark.parametrize("kind", ("price", "baseline", "joint"))
@given(
    seed=st.integers(0, 2**31 - 1),
    n_steps=st.sampled_from((1, 2, 3, 8)),
    shared=st.booleans(),
    threshold_km=st.sampled_from((0.0, 800.0, 1500.0)),
)
@settings(max_examples=20, deadline=None)
def test_routers_quantised_ties(walk, kind, seed, n_steps, shared, threshold_km):
    """Each router's ``allocate`` equals its ``allocate_batch`` and
    ``batch_allocate`` bitwise on integer demand, integer prices (so
    price buckets tie) and quantised limits, shared or per step."""
    problem = _problem()
    rng = np.random.default_rng(seed)
    demand = rng.integers(0, 5, (n_steps, problem.n_states)) * 1000.0
    demand *= rng.random(demand.shape) < 0.7
    prices = rng.integers(15, 60, (n_steps, problem.n_clusters)).astype(float)
    limits = _quantised_limits(rng, demand, problem.n_clusters, shared)
    router = _router(kind, threshold_km)
    step_limits = np.broadcast_to(limits, (n_steps, problem.n_clusters))
    reference = np.stack(
        [router.allocate(demand[t], prices[t], step_limits[t]) for t in range(n_steps)]
    )
    with _walk(walk):
        np.testing.assert_array_equal(router.allocate_batch(demand, prices, limits), reference)
        np.testing.assert_array_equal(batch_allocate(router, demand, prices, limits), reference)
