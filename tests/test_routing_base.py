"""Tests for repro.routing.base (greedy fill and the routing problem)."""

import numpy as np
import pytest

from repro.errors import InfeasibleAllocationError
from repro.routing.base import RoutingProblem
from repro.traffic.clusters import akamai_like_deployment

from router_oracle import greedy_fill


class TestRoutingProblem:
    def test_dimensions(self):
        problem = RoutingProblem(akamai_like_deployment())
        assert problem.n_states == 49
        assert problem.n_clusters == 9
        assert len(problem.state_codes) == 49

    def test_distances_shape(self):
        problem = RoutingProblem(akamai_like_deployment())
        assert problem.distances.matrix.shape == (49, 9)


class TestGreedyFill:
    def test_respects_preference_when_unconstrained(self):
        demand = np.array([10.0, 20.0])
        orders = [np.array([1, 0]), np.array([0, 1])]
        limits = np.array([np.inf, np.inf])
        alloc = greedy_fill(demand, orders, limits)
        assert alloc[0, 1] == 10.0
        assert alloc[1, 0] == 20.0

    def test_conserves_demand(self):
        rng = np.random.default_rng(0)
        demand = rng.random(5) * 100
        orders = [np.argsort(rng.random(3)) for _ in range(5)]
        limits = np.full(3, 1000.0)
        alloc = greedy_fill(demand, orders, limits)
        assert np.allclose(alloc.sum(axis=1), demand)

    def test_spills_on_limit(self):
        demand = np.array([30.0])
        orders = [np.array([0, 1])]
        limits = np.array([10.0, 100.0])
        alloc = greedy_fill(demand, orders, limits)
        assert alloc[0, 0] == 10.0
        assert alloc[0, 1] == 20.0

    def test_never_exceeds_limits(self):
        rng = np.random.default_rng(1)
        demand = rng.random(10) * 50
        orders = [np.argsort(rng.random(4)) for _ in range(10)]
        limits = np.full(4, demand.sum() / 3.0)
        alloc = greedy_fill(demand, orders, limits)
        assert np.all(alloc.sum(axis=0) <= limits + 1e-9)

    def test_fallback_outside_preference(self):
        # State prefers only cluster 0, which is full: falls back.
        demand = np.array([10.0])
        orders = [np.array([0])]
        limits = np.array([0.0, 100.0])
        alloc = greedy_fill(demand, orders, limits)
        assert alloc[0, 1] == 10.0

    def test_infeasible_raises(self):
        demand = np.array([100.0])
        orders = [np.array([0, 1])]
        limits = np.array([10.0, 10.0])
        with pytest.raises(InfeasibleAllocationError):
            greedy_fill(demand, orders, limits)

    def test_largest_demand_first_default(self):
        # The big state claims its preferred cluster before the small
        # one (both prefer cluster 0 with capacity for only one).
        demand = np.array([10.0, 90.0])
        orders = [np.array([0, 1]), np.array([0, 1])]
        limits = np.array([90.0, 100.0])
        alloc = greedy_fill(demand, orders, limits)
        assert alloc[1, 0] == 90.0  # big state got its first choice
        assert alloc[0, 1] == 10.0

    def test_custom_state_order(self):
        demand = np.array([10.0, 90.0])
        orders = [np.array([0, 1]), np.array([0, 1])]
        limits = np.array([90.0, 100.0])
        alloc = greedy_fill(demand, orders, limits, state_order=np.array([0, 1]))
        assert alloc[0, 0] == 10.0  # small state processed first now
        assert alloc[1, 0] == 80.0

    def test_zero_demand_untouched(self):
        demand = np.array([0.0, 5.0])
        orders = [np.array([0]), np.array([1])]
        limits = np.array([10.0, 10.0])
        alloc = greedy_fill(demand, orders, limits)
        assert np.all(alloc[0] == 0.0)
