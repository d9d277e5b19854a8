"""Property-based tests (hypothesis) on core invariants.

Routing conservation, limit safety, energy-model monotonicity, billing
percentile properties, and series algebra — the invariants every
experiment implicitly relies on.
"""

from datetime import datetime

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.energy.model import ClusterPowerModel, EnergyModelParams
from repro.markets.series import PriceSeries
from repro.routing.base import RoutingProblem
from repro.routing.price import PriceConsciousRouter
from repro.traffic.clusters import akamai_like_deployment
from repro.traffic.percentile import billing_percentile

from router_oracle import greedy_fill

PROBLEM = RoutingProblem(akamai_like_deployment())

demand_arrays = arrays(
    np.float64,
    PROBLEM.n_states,
    elements=st.floats(0.0, 50_000.0, allow_nan=False),
)
price_arrays = arrays(
    np.float64,
    PROBLEM.n_clusters,
    elements=st.floats(-40.0, 500.0, allow_nan=False),
)


class TestRoutingInvariants:
    @given(demand=demand_arrays, prices=price_arrays, threshold=st.floats(0.0, 6000.0))
    @settings(max_examples=60, deadline=None)
    def test_price_router_conserves_demand(self, demand, prices, threshold):
        router = PriceConsciousRouter(PROBLEM, distance_threshold_km=threshold)
        limits = np.full(PROBLEM.n_clusters, np.inf)
        alloc = router.allocate(demand, prices, limits)
        assert np.allclose(alloc.sum(axis=1), demand, rtol=1e-9, atol=1e-6)
        assert np.all(alloc >= 0.0)

    @given(demand=demand_arrays, prices=price_arrays)
    @settings(max_examples=40, deadline=None)
    def test_price_router_respects_limits(self, demand, prices):
        router = PriceConsciousRouter(PROBLEM, distance_threshold_km=2000.0)
        # Limits sized to total demand plus headroom, split unevenly.
        total = demand.sum() + 1.0
        weights = np.linspace(1.0, 3.0, PROBLEM.n_clusters)
        limits = total * weights / weights.sum() * 1.5
        alloc = router.allocate(demand, prices, limits)
        assert np.all(alloc.sum(axis=0) <= limits + 1e-6)

    @given(demand=demand_arrays, prices=price_arrays)
    @settings(max_examples=40, deadline=None)
    def test_allocation_only_uses_candidates(self, demand, prices):
        router = PriceConsciousRouter(PROBLEM, distance_threshold_km=800.0)
        limits = np.full(PROBLEM.n_clusters, np.inf)
        alloc = router.allocate(demand, prices, limits)
        for s, cands in enumerate(router.candidate_sets):
            outside = np.setdiff1d(np.arange(PROBLEM.n_clusters), cands)
            assert np.all(alloc[s, outside] == 0.0)

    @given(
        demand=arrays(np.float64, 6, elements=st.floats(0.0, 100.0)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_greedy_fill_conserves(self, demand, seed):
        rng = np.random.default_rng(seed)
        orders = [rng.permutation(4) for _ in range(6)]
        limits = np.full(4, demand.sum() + 1.0)
        alloc = greedy_fill(demand, orders, limits)
        assert np.allclose(alloc.sum(axis=1), demand)
        assert np.all(alloc.sum(axis=0) <= limits + 1e-9)


class TestEnergyInvariants:
    @given(
        idle=st.floats(0.0, 1.0),
        pue=st.floats(1.0, 3.0),
        u1=st.floats(0.0, 1.0),
        u2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_monotone_in_utilization(self, idle, pue, u1, u2):
        model = ClusterPowerModel(EnergyModelParams(idle, pue), 100)
        lo, hi = sorted((u1, u2))
        assert model.power_watts(lo) <= model.power_watts(hi) + 1e-9

    @given(idle=st.floats(0.0, 1.0), pue=st.floats(1.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_elasticity_in_unit_interval(self, idle, pue):
        model = ClusterPowerModel(EnergyModelParams(idle, pue), 10)
        assert 0.0 <= model.elasticity() <= 1.0

    @given(
        idle=st.floats(0.0, 1.0),
        pue=st.floats(1.0, 3.0),
        u=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_bounded_by_peak(self, idle, pue, u):
        params = EnergyModelParams(idle, pue, peak_power_watts=200.0)
        model = ClusterPowerModel(params, 50)
        peak = model.power_watts(1.0)
        assert model.power_watts(u) <= peak + 1e-9


class TestBillingInvariants:
    @given(samples=arrays(np.float64, (50, 3), elements=st.floats(0.0, 1e6, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_percentile_bounded_by_extremes(self, samples):
        p95 = billing_percentile(samples)
        assert np.all(p95 <= samples.max(axis=0) + 1e-9)
        assert np.all(p95 >= samples.min(axis=0) - 1e-9)

    @given(
        samples=arrays(np.float64, (40, 2), elements=st.floats(0.0, 1e4, allow_nan=False)),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_percentile_scale_equivariant(self, samples, scale):
        base = billing_percentile(samples)
        scaled = billing_percentile(samples * scale)
        assert np.allclose(scaled, base * scale, rtol=1e-9, atol=1e-9)


class TestSeriesInvariants:
    @given(
        values=arrays(
            np.float64,
            st.integers(48, 200),
            elements=st.floats(-100.0, 2000.0, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_subtraction_antisymmetric(self, values):
        a = PriceSeries(datetime(2006, 1, 1), values)
        b = PriceSeries(datetime(2006, 1, 1), values[::-1].copy())
        assert np.allclose((a - b).values, -(b - a).values)

    @given(
        values=arrays(
            np.float64,
            st.integers(48, 96),
            elements=st.floats(0.0, 1000.0, allow_nan=False),
        ),
        steps=st.integers(0, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_preserves_length_and_range(self, values, steps):
        series = PriceSeries(datetime(2006, 1, 1), values)
        shifted = series.shifted(steps)
        assert len(shifted) == len(series)
        assert shifted.values.min() >= values.min() - 1e-12
        assert shifted.values.max() <= values.max() + 1e-12

    @given(
        values=arrays(
            np.float64,
            st.integers(48, 240),
            elements=st.floats(0.0, 500.0, allow_nan=False),
        ),
        fraction=st.floats(0.0, 0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_trimming_shrinks_range(self, values, fraction):
        series = PriceSeries(datetime(2006, 1, 1), values)
        trimmed = series.trimmed(fraction)
        assert trimmed.size > 0
        assert trimmed.min() >= values.min() - 1e-12
        assert trimmed.max() <= values.max() + 1e-12
