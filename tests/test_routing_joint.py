"""Tests for repro.routing.joint (§8 joint optimization)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.routing.joint import JointOptimizationRouter
from repro.routing.price import PriceConsciousRouter

from router_oracle import oracle


@pytest.fixture(scope="module")
def flat_prices(problem):
    return np.full(problem.n_clusters, 60.0)


def relaxed(problem):
    return np.full(problem.n_clusters, np.inf)


class TestJointRouter:
    def test_validation(self, problem):
        with pytest.raises(ConfigurationError):
            JointOptimizationRouter(problem, distance_penalty_per_1000km=-1.0)

    def test_conserves_demand(self, problem):
        router = JointOptimizationRouter(problem)
        rng = np.random.default_rng(0)
        demand = rng.random(problem.n_states) * 1e4
        prices = rng.random(problem.n_clusters) * 100
        alloc = router.allocate(demand, prices, relaxed(problem))
        assert np.allclose(alloc.sum(axis=1), demand)

    def test_zero_penalties_reduce_to_price_routing(self, problem):
        joint = JointOptimizationRouter(
            problem,
            distance_penalty_per_1000km=0.0,
            congestion_penalty=0.0,
        )
        price = PriceConsciousRouter(problem, 10_000.0, price_threshold=0.0)
        rng = np.random.default_rng(1)
        demand = rng.random(problem.n_states) * 100
        prices = np.arange(9.0) * 7.0 + 10.0  # distinct, cluster 0 cheapest
        a = joint.allocate(demand, prices, relaxed(problem))
        b = price.allocate(demand, prices, relaxed(problem))
        assert np.allclose(a, b)

    def test_huge_distance_penalty_gives_proximity(self, problem, flat_prices):
        router = JointOptimizationRouter(
            problem,
            distance_penalty_per_1000km=1e6,
            congestion_penalty=0.0,
        )
        demand = np.full(problem.n_states, 10.0)
        alloc = router.allocate(demand, flat_prices, relaxed(problem))
        nearest = np.argmin(problem.distances.matrix, axis=1)
        chosen = np.argmax(alloc, axis=1)
        assert np.array_equal(chosen, nearest)

    def test_congestion_penalty_spreads_load(self, problem):
        demand = np.full(problem.n_states, 30_000.0)
        prices = np.full(problem.n_clusters, 60.0)
        prices[0] = 10.0  # one very cheap cluster
        concentrated = JointOptimizationRouter(
            problem,
            distance_penalty_per_1000km=0.0,
            congestion_penalty=0.0,
        ).allocate(demand, prices, relaxed(problem))
        spread = JointOptimizationRouter(
            problem,
            distance_penalty_per_1000km=0.0,
            congestion_penalty=500.0,
        ).allocate(demand, prices, relaxed(problem))
        assert spread.sum(axis=0)[0] < concentrated.sum(axis=0)[0]

    def test_hard_distance_threshold(self, problem, flat_prices):
        router = JointOptimizationRouter(
            problem,
            distance_penalty_per_1000km=0.0,
            congestion_penalty=0.0,
            distance_threshold_km=1000.0,
        )
        prices = flat_prices.copy()
        tx1 = problem.deployment.index_of("TX1")
        prices[tx1] = 1.0
        demand = np.zeros(problem.n_states)
        ma = problem.state_codes.index("MA")
        demand[ma] = 100.0
        alloc = router.allocate(demand, prices, relaxed(problem))
        assert alloc[ma, tx1] == 0.0

    def test_distance_threshold_holds_when_allowed_prices_are_inf(self, problem):
        """An allowed cluster priced at inf still ranks ahead of every
        forbidden one: all-inf prices used to tie the whole row at inf,
        and argmin then took cluster 0 whatever the threshold."""
        router = JointOptimizationRouter(problem, distance_threshold_km=800.0)
        distances = problem.distances.matrix
        allowed = distances <= 800.0
        stranded = ~allowed.any(axis=1)
        allowed[stranded, distances[stranded].argmin(axis=1)] = True
        demand = np.full(problem.n_states, 100.0)
        for prices in (np.full(problem.n_clusters, np.inf), np.where(allowed[0], np.inf, 50.0)):
            alloc = router.allocate(demand, prices, relaxed(problem))
            assert not (alloc[~allowed] > 0.0).any()
            batch = router.allocate_batch(demand[None], prices[None], relaxed(problem))
            assert np.array_equal(batch[0], alloc)

    def test_respects_limits(self, problem):
        router = JointOptimizationRouter(problem)
        demand = np.full(problem.n_states, 20_000.0)
        prices = np.full(problem.n_clusters, 60.0)
        limits = problem.deployment.capacities * 0.8
        alloc = router.allocate(demand, prices, limits)
        assert np.all(alloc.sum(axis=0) <= limits + 1e-6)

    def test_overload_ordering_beyond_200_percent(self, problem, flat_prices):
        # The congestion ramp must stay strictly monotone past 2.0x
        # projected utilization: a cluster at 300% scores worse than one
        # at 250%, which scores worse than one at 200%. The old clamp at
        # 2.0 made all three indistinguishable. The score function is
        # the per-step oracle's, which the batch suites pin the router's
        # own scoring passes to.
        router = JointOptimizationRouter(
            problem, distance_penalty_per_1000km=0.0, congestion_penalty=10.0
        )
        utilization = np.zeros(problem.n_clusters)
        utilization[:3] = (2.0, 2.5, 3.0)
        scores = oracle(router)._scores(flat_prices, utilization)
        assert scores[0, 0] < scores[0, 1] < scores[0, 2]

    def test_overloaded_cluster_repels_demand(self, problem):
        # With every cluster past 200% projected utilization, the
        # re-score pass still steers states away from the *most*
        # overloaded cheap cluster rather than dog-piling it.
        demand = np.full(problem.n_states, 150_000.0)  # ~3x total capacity
        prices = np.full(problem.n_clusters, 60.0)
        prices[0] = 10.0
        alloc = JointOptimizationRouter(
            problem, distance_penalty_per_1000km=0.0, congestion_penalty=500.0
        ).allocate(demand, prices, relaxed(problem))
        loads = alloc.sum(axis=0)
        # The cheap cluster must not absorb the whole surge.
        assert loads[0] < demand.sum() * 0.5
