"""Tests for repro.routing.price (the paper's core optimizer)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InfeasibleAllocationError
from repro.routing import base as routing_base
from repro.routing import price as routing_price
from repro.routing.base import RoutingProblem
from repro.routing.price import METRO_RADIUS_KM, PriceConsciousRouter
from repro.sim import simulate
from repro.traffic.clusters import akamai_like_deployment


@pytest.fixture(scope="module")
def problem():
    return RoutingProblem(akamai_like_deployment())


def relaxed_limits(problem):
    return np.full(problem.n_clusters, np.inf)


class TestCandidateSets:
    def test_zero_threshold_gives_metro_fallback(self, problem):
        router = PriceConsciousRouter(problem, distance_threshold_km=0.0)
        for cands in router.candidate_sets:
            assert cands.size >= 1

    def test_huge_threshold_gives_all_clusters(self, problem):
        router = PriceConsciousRouter(problem, distance_threshold_km=10_000.0)
        for cands in router.candidate_sets:
            assert cands.size == problem.n_clusters

    def test_candidates_grow_with_threshold(self, problem):
        small = PriceConsciousRouter(problem, 500.0)
        large = PriceConsciousRouter(problem, 2000.0)
        for s, l in zip(small.candidate_sets, large.candidate_sets):
            assert set(s) <= set(l)

    def test_fallback_includes_metro_neighbours(self, problem):
        router = PriceConsciousRouter(problem, 0.0)
        distances = problem.distances.matrix
        for s, cands in enumerate(router.candidate_sets):
            nearest = distances[s].min()
            expected = np.flatnonzero(distances[s] <= nearest + METRO_RADIUS_KM)
            assert set(cands) == set(expected)

    def test_validation(self, problem):
        with pytest.raises(ConfigurationError):
            PriceConsciousRouter(problem, -1.0)
        with pytest.raises(ConfigurationError):
            PriceConsciousRouter(problem, 100.0, price_threshold=-1.0)


class TestAllocation:
    def test_conserves_demand(self, problem):
        router = PriceConsciousRouter(problem, 1500.0)
        rng = np.random.default_rng(0)
        demand = rng.random(problem.n_states) * 1e4
        prices = rng.random(problem.n_clusters) * 100
        alloc = router.allocate(demand, prices, relaxed_limits(problem))
        assert np.allclose(alloc.sum(axis=1), demand)

    def test_picks_cheapest_when_unconstrained(self, problem):
        router = PriceConsciousRouter(problem, 10_000.0, price_threshold=0.0)
        demand = np.full(problem.n_states, 100.0)
        prices = np.arange(9.0) * 10.0 + 10.0  # cluster 0 cheapest
        alloc = router.allocate(demand, prices, relaxed_limits(problem))
        assert np.allclose(alloc[:, 0], demand)

    def test_price_threshold_breaks_ties_by_distance(self, problem):
        # Clusters 0 (CA1) and 3 (NY) priced within the threshold:
        # an East Coast state must pick NY, a West Coast state CA1.
        router = PriceConsciousRouter(problem, 10_000.0, price_threshold=5.0)
        prices = np.full(9, 100.0)
        prices[0] = 50.0
        prices[3] = 53.0  # within $5 of the cheapest
        demand = np.zeros(problem.n_states)
        ny = problem.state_codes.index("NY")
        ca = problem.state_codes.index("CA")
        demand[ny] = demand[ca] = 100.0
        alloc = router.allocate(demand, prices, relaxed_limits(problem))
        assert alloc[ny, 3] == 100.0
        assert alloc[ca, 0] == 100.0

    def test_distance_threshold_respected(self, problem):
        router = PriceConsciousRouter(problem, 1000.0)
        prices = np.full(9, 100.0)
        tx1 = problem.deployment.index_of("TX1")
        prices[tx1] = 1.0  # Texas nearly free
        demand = np.zeros(problem.n_states)
        ma = problem.state_codes.index("MA")
        demand[ma] = 500.0
        alloc = router.allocate(demand, prices, relaxed_limits(problem))
        # Massachusetts is ~2700 km from Dallas: must NOT go there.
        assert alloc[ma, tx1] == 0.0

    def test_spills_at_capacity(self, problem):
        router = PriceConsciousRouter(problem, 10_000.0, price_threshold=0.0)
        demand = np.full(problem.n_states, 1000.0)
        prices = np.arange(9.0)
        limits = np.full(9, 10_000.0)
        limits[0] = 500.0  # cheapest cluster tiny
        alloc = router.allocate(demand, prices, limits)
        loads = alloc.sum(axis=0)
        assert loads[0] <= 500.0 + 1e-9
        assert np.allclose(alloc.sum(), demand.sum())

    def test_fast_path_matches_greedy_when_loose(self, problem):
        router = PriceConsciousRouter(problem, 1500.0)
        rng = np.random.default_rng(1)
        demand = rng.random(problem.n_states) * 1000
        prices = rng.random(9) * 80 + 20
        loose = router.allocate(demand, prices, relaxed_limits(problem))
        # Limits just above the realised loads: the greedy path must
        # produce the same (single-cluster-per-state) allocation.
        limits = loose.sum(axis=0) + 1.0
        tight = router.allocate(demand, prices, limits)
        assert np.allclose(loose, tight)

    def test_cheaper_prices_pull_traffic(self, problem):
        router = PriceConsciousRouter(problem, 2000.0)
        demand = np.full(problem.n_states, 1000.0)
        flat = np.full(9, 60.0)
        il = problem.deployment.index_of("IL")
        discounted = flat.copy()
        discounted[il] = 10.0
        base_alloc = router.allocate(demand, flat, relaxed_limits(problem))
        disc_alloc = router.allocate(demand, discounted, relaxed_limits(problem))
        assert disc_alloc[:, il].sum() > base_alloc[:, il].sum()


def _repeated_price_rows(rng, n_steps: int, n_clusters: int) -> tuple[np.ndarray, np.ndarray]:
    """``n_steps`` price rows drawn from a few distinct rows, each
    repeated 1-15 times in a row (a block), rows coming back after
    others; also each step's block number.

    Integer prices make cheap buckets and sorts tie; zeros and ``inf``
    prices are mixed in. The first row also comes as a twin with its
    zeros sign-flipped (equal under ``==``) and as a near twin that
    differs in one cluster only.
    """
    pool = rng.integers(10, 120, (int(rng.integers(1, 5)), n_clusters)).astype(float)
    special = rng.random(pool.shape)
    pool[special < 0.15] = 0.0
    pool[special > 0.92] = np.inf
    near = pool[0].copy()
    near[int(rng.integers(n_clusters))] = float(rng.integers(0, 15))
    pool = np.vstack([pool, np.where(pool[0] == 0.0, -0.0, pool[0]), near])
    rows: list[int] = []
    blocks: list[int] = []
    while len(rows) < n_steps:
        repeat = int(rng.integers(1, 16))
        blocks += [blocks[-1] + 1 if blocks else 0] * repeat
        rows += [int(rng.integers(len(pool)))] * repeat
    return pool[np.array(rows[:n_steps], dtype=int)], np.array(blocks[:n_steps], dtype=int)


def _scalar_replay(router, demand, prices, limits):
    """Per-step ``allocate`` stacked, or the error class it raised."""
    n_states, n_clusters = demand.shape[1], prices.shape[1]
    step_limits = np.broadcast_to(limits, (len(demand), n_clusters))
    try:
        rows = [router.allocate(demand[t], prices[t], step_limits[t]) for t in range(len(demand))]
    except InfeasibleAllocationError:
        return InfeasibleAllocationError
    return np.stack(rows) if rows else np.zeros((0, n_states, n_clusters))


@pytest.mark.parametrize("walk", ("per_step", "vectorised"))
@given(
    seed=st.integers(0, 2**31 - 1),
    n_steps=st.integers(0, 60),
    shared=st.booleans(),
    tightness=st.sampled_from((0.97, 1.02, 1.3, np.inf)),
    threshold_km=st.sampled_from((0.0, 800.0, 1500.0, 5000.0)),
)
@settings(max_examples=30, deadline=None)
def test_repeated_price_rows_replay_scalar(
    problem, walk, seed, n_steps, shared, tightness, threshold_km
):
    """``allocate_batch`` over hourly-style repeated price rows equals
    per-step ``allocate`` byte for byte, or raises as it does."""
    rng = np.random.default_rng(seed)
    n_states, n_clusters = problem.n_states, problem.n_clusters
    prices, block = _repeated_price_rows(rng, n_steps, n_clusters)
    # Demand scales fourfold between blocks, so under shared limits
    # some runs fit on the fast path while others spill.
    demand = rng.integers(0, 5, (n_steps, n_states)) * 1000.0
    demand *= rng.choice([0.25, 0.5, 1.0], n_steps + 1)[block][:, None]
    shares = 0.25 + rng.random((1 if shared else n_steps, n_clusters))
    shares /= shares.sum(axis=1, keepdims=True)
    totals = demand.sum(axis=1)
    peak = totals.max(initial=0.0) if shared else totals[:, None]
    limits = shares * peak * tightness if np.isfinite(tightness) else np.full(shares.shape, np.inf)
    if shared:
        limits = limits[0]
    router = PriceConsciousRouter(problem, threshold_km)
    expected = _scalar_replay(router, demand, prices, limits)
    with pytest.MonkeyPatch.context() as patch:
        threshold = 1 if walk == "vectorised" else 10**9
        patch.setattr(routing_base, "_VECTOR_WALK_MIN_STEPS", threshold)
        if expected is InfeasibleAllocationError:
            with pytest.raises(InfeasibleAllocationError):
                router.allocate_batch(demand, prices, limits)
            return
        batch = router.allocate_batch(demand, prices, limits)
    assert batch.shape == expected.shape
    assert batch.tobytes() == expected.tobytes()


class TestPreferenceOncePerPriceRun:
    """Hourly prices repeat over the five-minute steps of an hour; the
    batch form ranks clusters once per run of equal price rows."""

    def test_spilling_run_after_fitting_run_ranks_by_its_own_row(self, problem):
        # Everyone wants the cheapest cluster: tiny demand fits there,
        # full demand spills down the price order, which the middle
        # run reverses.
        router = PriceConsciousRouter(problem, 5000.0, price_threshold=0.0)
        ascending = np.arange(problem.n_clusters) * 10.0 + 10.0
        prices = np.repeat([ascending, ascending[::-1], ascending], 4, axis=0)
        demand = np.full((len(prices), problem.n_states), 1000.0)
        demand[:4] *= 0.01
        limits = np.full(problem.n_clusters, 1.2 * demand[4].sum() / problem.n_clusters)
        expected = _scalar_replay(router, demand, prices, limits)
        assert router.allocate_batch(demand, prices, limits).tobytes() == expected.tobytes()

    def test_simulate_ranks_each_spilling_run_once(
        self, problem, short_trace, small_dataset, monkeypatch
    ):
        calls: list[dict] = []
        real_batch = PriceConsciousRouter.allocate_batch
        real_orders = PriceConsciousRouter._preference_orders
        real_fill = routing_price.greedy_fill_batch

        def batch(self, demand, prices, limits):
            calls.append({"prices": np.array(prices), "ranked": 0, "spilled": []})
            return real_batch(self, demand, prices, limits)

        def orders(self, masked_prices, cutoff):
            calls[-1]["ranked"] += masked_prices.shape[0]
            return real_orders(self, masked_prices, cutoff)

        def fill(*args, out_rows, **kwargs):
            calls[-1]["spilled"] = np.asarray(out_rows)
            return real_fill(*args, out_rows=out_rows, **kwargs)

        monkeypatch.setattr(PriceConsciousRouter, "allocate_batch", batch)
        monkeypatch.setattr(PriceConsciousRouter, "_preference_orders", orders)
        monkeypatch.setattr(routing_price, "greedy_fill_batch", fill)
        simulate(short_trace, small_dataset, problem, PriceConsciousRouter(problem, 1500.0))

        assert calls
        for call in calls:
            prices = call["prices"]
            starts = np.ones(len(prices), dtype=bool)
            starts[1:] = np.any(prices[1:] != prices[:-1], axis=1)
            run_of = np.cumsum(starts) - 1
            assert call["ranked"] == np.unique(run_of[call["spilled"]]).size
        spilled_steps = sum(len(call["spilled"]) for call in calls)
        ranked_rows = sum(call["ranked"] for call in calls)
        assert 0 < ranked_rows < spilled_steps
