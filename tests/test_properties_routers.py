"""Hypothesis property tests over *every* router kind.

Four invariants, checked across randomized cluster rosters (2-9
clusters drawn from the Akamai-like deployment), demand vectors, and
price tensors:

* **Conservation** — every row of the allocation sums to the state's
  demand: all traffic is always served (§1's full-replication premise).
* **Limit safety** — column sums never exceed the effective limits
  (static is the deliberate exception: it models a consolidated fleet
  and ignores per-site limits by contract).
* **Determinism** — identical inputs produce bit-identical allocations
  across repeated calls *and* across freshly constructed routers, and
  the vectorised batch path reproduces the scalar path exactly. Every
  simulation cache, artifact hash, and replica ensemble rests on this.
* **Candidate sets** — with unlimited capacity, a state is only ever
  placed inside its candidate set (the price router's distance-limited
  set with its metro fallback, the joint router's allowed clusters);
  a NaN price is refused instead of silently routing around it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError
from repro.routing.akamai import BaselineProximityRouter
from repro.routing.base import RoutingProblem, batch_allocate
from repro.routing.joint import JointOptimizationRouter
from repro.routing.price import PriceConsciousRouter
from repro.routing.static import StaticSingleHubRouter
from repro.traffic.clusters import ClusterDeployment, akamai_like_deployment

_FULL = akamai_like_deployment()

#: RoutingProblem per cluster subset (DistanceTable construction is the
#: expensive part; reuse across examples).
_PROBLEMS: dict[tuple[int, ...], RoutingProblem] = {}


def problem_for(subset: tuple[int, ...]) -> RoutingProblem:
    if subset not in _PROBLEMS:
        clusters = [_FULL.clusters[i] for i in subset]
        _PROBLEMS[subset] = RoutingProblem(ClusterDeployment(clusters))
    return _PROBLEMS[subset]


subsets = st.sets(st.integers(0, _FULL.n_clusters - 1), min_size=2).map(
    lambda s: tuple(sorted(s))
)


@st.composite
def routing_cases(draw):
    """A random (problem, demand, prices) triple with matching shapes."""
    prob = problem_for(draw(subsets))
    demand = draw(
        arrays(np.float64, prob.n_states, elements=st.floats(0.0, 50_000.0, allow_nan=False))
    )
    prices = draw(
        arrays(np.float64, prob.n_clusters, elements=st.floats(-40.0, 500.0, allow_nan=False))
    )
    return prob, demand, prices


def make_routers(prob: RoutingProblem, variant: int) -> list:
    """One configured router of every kind (variant picks parameters)."""
    thresholds = (0.0, 800.0, 2000.0, 6000.0)
    km = thresholds[variant % len(thresholds)]
    return [
        BaselineProximityRouter(prob, balance_slack=1.0 + 0.5 * (variant % 4)),
        PriceConsciousRouter(
            prob, distance_threshold_km=km, price_threshold=float(variant % 3) * 5.0
        ),
        JointOptimizationRouter(
            prob,
            distance_penalty_per_1000km=float(variant % 5) * 10.0,
            congestion_penalty=float(variant % 4) * 25.0,
            distance_threshold_km=km if variant % 2 else None,
        ),
        StaticSingleHubRouter(prob, cluster_index=variant % prob.n_clusters),
    ]


def feasible_limits(prob: RoutingProblem, demand: np.ndarray) -> np.ndarray:
    """Uneven per-cluster limits that can always hold the total demand."""
    weights = np.linspace(1.0, 3.0, prob.n_clusters)
    return (demand.sum() + 1.0) * weights / weights.sum() * 1.5 + 1.0


class TestConservation:
    @given(case=routing_cases(), variant=st.integers(0, 19))
    @settings(max_examples=40, deadline=None)
    def test_every_router_serves_all_demand(self, case, variant):
        prob, demand, prices = case
        limits = np.full(prob.n_clusters, np.inf)
        for router in make_routers(prob, variant):
            alloc = router.allocate(demand, prices, limits)
            assert alloc.shape == (prob.n_states, prob.n_clusters)
            assert np.all(alloc >= 0.0)
            assert np.allclose(alloc.sum(axis=1), demand, rtol=1e-9, atol=1e-6)

    @given(case=routing_cases(), variant=st.integers(0, 19))
    @settings(max_examples=25, deadline=None)
    def test_conservation_under_finite_limits(self, case, variant):
        prob, demand, prices = case
        limits = feasible_limits(prob, demand)
        for router in make_routers(prob, variant):
            alloc = router.allocate(demand, prices, limits)
            assert np.allclose(alloc.sum(axis=1), demand, rtol=1e-9, atol=1e-6)


class TestLimitSafety:
    @given(case=routing_cases(), variant=st.integers(0, 19))
    @settings(max_examples=25, deadline=None)
    def test_limit_respecting_routers_stay_under_limits(self, case, variant):
        prob, demand, prices = case
        limits = feasible_limits(prob, demand)
        baseline, price, joint, _ = make_routers(prob, variant)
        for router in (baseline, price, joint):
            alloc = router.allocate(demand, prices, limits)
            assert np.all(alloc.sum(axis=0) <= limits + 1e-6)

    @given(case=routing_cases(), variant=st.integers(0, 19))
    @settings(max_examples=25, deadline=None)
    def test_static_concentrates_on_its_cluster(self, case, variant):
        """Static's contract: limits ignored, one column carries all."""
        prob, demand, prices = case
        router = StaticSingleHubRouter(prob, cluster_index=variant % prob.n_clusters)
        alloc = router.allocate(demand, prices, feasible_limits(prob, demand))
        other = np.delete(alloc, router.cluster_index, axis=1)
        assert np.all(other == 0.0)
        assert np.array_equal(alloc[:, router.cluster_index], demand)


class TestDeterminism:
    @given(case=routing_cases(), variant=st.integers(0, 19))
    @settings(max_examples=25, deadline=None)
    def test_repeat_calls_and_fresh_routers_agree_bitwise(self, case, variant):
        prob, demand, prices = case
        limits = feasible_limits(prob, demand)
        for router, again in zip(make_routers(prob, variant), make_routers(prob, variant)):
            first = router.allocate(demand, prices, limits)
            assert np.array_equal(router.allocate(demand, prices, limits), first)
            assert np.array_equal(again.allocate(demand, prices, limits), first)

    @given(case=routing_cases(), variant=st.integers(0, 19))
    @settings(max_examples=20, deadline=None)
    def test_batch_path_reproduces_scalar_path(self, case, variant):
        prob, demand, prices = case
        rng = np.random.default_rng(variant)
        batch_demand = np.vstack([demand, demand * 0.5, rng.permutation(demand)])
        batch_prices = np.vstack([prices, prices[::-1], rng.permutation(prices)])
        limits = feasible_limits(prob, batch_demand[0])
        for router in make_routers(prob, variant):
            batched = batch_allocate(router, batch_demand, batch_prices, limits)
            for t in range(batch_demand.shape[0]):
                scalar = router.allocate(batch_demand[t], batch_prices[t], limits)
                assert np.array_equal(batched[t], scalar)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_seeded_inputs_reproduce_allocations(self, seed):
        """Fixed seed -> identical generated inputs -> identical routing."""
        def draw(s):
            rng = np.random.default_rng(s)
            prob = problem_for(tuple(sorted(rng.choice(9, size=4, replace=False).tolist())))
            demand = rng.uniform(0.0, 40_000.0, prob.n_states)
            prices = rng.uniform(10.0, 200.0, prob.n_clusters)
            return prob, demand, prices

        prob_a, demand_a, prices_a = draw(seed)
        prob_b, demand_b, prices_b = draw(seed)
        assert prob_a is prob_b
        limits = np.full(prob_a.n_clusters, np.inf)
        for ra, rb in zip(make_routers(prob_a, seed % 20), make_routers(prob_b, seed % 20)):
            assert np.array_equal(
                ra.allocate(demand_a, prices_a, limits),
                rb.allocate(demand_b, prices_b, limits),
            )


def allowed_clusters(router, prob: RoutingProblem) -> np.ndarray:
    """``(n_states, n_clusters)`` mask of where ``router`` may place a
    state when capacity never binds."""
    distances = prob.distances.matrix
    if isinstance(router, PriceConsciousRouter):
        allowed = np.zeros_like(distances, dtype=bool)
        for s, cands in enumerate(router.candidate_sets):
            allowed[s, cands] = True
        return allowed
    if isinstance(router, JointOptimizationRouter) and router.distance_threshold_km is not None:
        allowed = distances <= router.distance_threshold_km
        nearest = distances.argmin(axis=1)
        allowed[np.arange(prob.n_states), nearest] |= ~allowed.any(axis=1)
        return allowed
    return np.ones_like(distances, dtype=bool)


@st.composite
def prices_with_gaps(draw):
    """A routing case whose prices may hold NaN, inf and -inf."""
    prob = problem_for(draw(subsets))
    demand = draw(
        arrays(np.float64, prob.n_states, elements=st.floats(0.0, 50_000.0, allow_nan=False))
    )
    special = st.sampled_from((np.nan, np.inf, -np.inf))
    prices = draw(
        arrays(
            np.float64,
            prob.n_clusters,
            elements=st.one_of(st.floats(-40.0, 500.0), special),
        )
    )
    return prob, demand, prices


class TestCandidateSets:
    @given(case=prices_with_gaps(), variant=st.integers(0, 19))
    @settings(max_examples=60, deadline=None)
    def test_unlimited_capacity_stays_inside_candidate_sets(self, case, variant):
        """With room to spare, every positive cell lies in the state's
        candidate set, or the call refuses a NaN price."""
        prob, demand, prices = case
        limits = np.full(prob.n_clusters, np.inf)
        baseline, price, joint, _ = make_routers(prob, variant)
        for router in (baseline, price, joint):
            if np.isnan(prices).any():
                with pytest.raises(ConfigurationError, match="NaN"):
                    batch_allocate(router, demand[None], prices[None], limits)
                continue
            alloc = batch_allocate(router, demand[None], prices[None], limits)[0]
            outside = (alloc > 0.0) & ~allowed_clusters(router, prob)
            assert not outside.any(), f"{type(router).__name__} left the candidate set"
