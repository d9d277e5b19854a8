"""The C ``price_rank`` kernel against the numpy ranking it replaced.

``price_oracle.rank`` is the price router's old numpy prelude: masked
minimum, cutoff, the nearest cheap candidate, and the stable lexsort of
the spill orders. The kernel must reproduce all of it byte for byte on
any roster, prices and threshold: ties in price and distance, ``±inf``,
``-0.0`` against ``0.0``, thresholds of 0 and ``inf`` (a ``-inf``
minimum plus an ``inf`` threshold is a NaN cutoff), empty and single
candidate sets. ``price_oracle.allocate_batch`` is the old router body
end to end, which ``PriceConsciousRouter.allocate_batch`` must equal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._native import price_rank
from repro.errors import ConfigurationError, InfeasibleAllocationError
from repro.routing.base import RoutingProblem
from repro.routing.price import PriceConsciousRouter, nearest_first
from repro.traffic.clusters import akamai_like_deployment

import price_oracle

INF = float("inf")
PRICES = st.sampled_from([-INF, -0.0, 0.0, 1.0, 5.0, 6.0, 10.0, INF]) | st.floats(
    -100.0, 200.0, allow_nan=False
)
DISTANCES = st.sampled_from([0.0, 10.0, 250.0, INF]) | st.floats(0.0, 5000.0)
THRESHOLDS = st.sampled_from([0.0, -0.0, 5.0, INF]) | st.floats(0.0, 50.0)


def kernel_rank(candidates, distances, threshold, prices):
    """Every row's choice and spill orders from ``price_rank``.

    One call with unbounded limits, so every row fits and writes its
    choice (unit demand, read back with ``argmax``); one with ``-inf``
    limits, so every row spills and gets its block of orders.
    """
    n_steps, n_clusters = prices.shape
    n_states = len(candidates)
    by_distance = nearest_first(candidates, distances)
    n_prefs = by_distance.shape[1]
    demand = np.ones((n_steps, n_states))
    out = {}
    for name, bound in (("fit", INF), ("spill", -INF)):
        limits = np.full(n_clusters, bound)
        # NaN-filled: a fitting row is zero-filled by the kernel.
        allocation = np.full((n_steps, n_states, n_clusters), np.nan)
        spill = np.empty(n_steps, dtype=np.int64)
        blocks = np.empty(n_steps, dtype=np.int64)
        orders = np.empty((n_steps, n_states, n_prefs), dtype=np.int64)
        n_spill = price_rank(
            n_steps,
            n_states,
            n_clusters,
            n_prefs,
            prices.ctypes.data,
            by_distance.ctypes.data,
            distances.ctypes.data,
            threshold,
            demand.ctypes.data,
            limits.ctypes.data,
            1,
            allocation.ctypes.data,
            spill.ctypes.data,
            blocks.ctypes.data,
            orders.ctypes.data,
        )
        out[name] = n_spill, allocation, spill, blocks, orders
    n_spill, allocation, _, _, _ = out["fit"]
    assert n_spill == 0
    assert (allocation.sum(axis=2) == 1.0).all()
    choice = allocation.argmax(axis=2)
    n_spill, _, spill, blocks, orders = out["spill"]
    assert n_spill == n_steps
    assert spill.tolist() == list(range(n_steps))
    return choice, orders[blocks]


@st.composite
def rosters(draw):
    n_states = draw(st.integers(1, 6))
    n_clusters = draw(st.integers(1, 9))
    candidates = [
        np.array(
            sorted(draw(st.sets(st.integers(0, n_clusters - 1), max_size=n_clusters))),
            dtype=np.int64,
        )
        for _ in range(n_states)
    ]
    cells = n_states * n_clusters
    distances = np.array(draw(st.lists(DISTANCES, min_size=cells, max_size=cells)))
    distances = distances.reshape(n_states, n_clusters)
    pool = draw(
        st.lists(
            st.lists(PRICES, min_size=n_clusters, max_size=n_clusters), min_size=1, max_size=3
        )
    )
    # Rows repeat, so the kernel's reuse of the last ranked row is hit.
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    prices = np.array([pool[i] for i in picks], dtype=float)
    return candidates, distances, draw(THRESHOLDS), prices


def _assert_rank_matches(candidates, distances, threshold, prices):
    choice, orders = kernel_rank(candidates, distances, threshold, prices)
    expected_choice, expected_orders = price_oracle.rank(candidates, distances, threshold, prices)
    n_prefs = orders.shape[2]
    assert choice.tobytes() == expected_choice.tobytes()
    assert orders.tobytes() == np.ascontiguousarray(expected_orders[:, :, :n_prefs]).tobytes()
    assert (expected_orders[:, :, n_prefs:] == -1).all()


@settings(max_examples=400, deadline=None)
@given(rosters())
@example(
    # A -inf minimum plus an infinite threshold: a NaN cutoff, no cheap
    # candidate (choice 0) and every candidate in bucket 0.
    (
        [np.array([1, 2]), np.array([0])],
        np.array([[5.0, 1.0, 1.0], [2.0, 2.0, 2.0]]),
        INF,
        np.array([[3.0, -INF, 4.0]]),
    ),
)
@example(
    # Single candidates, -0.0 against 0.0, and a price tie past the cutoff.
    (
        [np.array([2]), np.array([0, 1, 2])],
        np.array([[1.0, 1.0, 1.0], [3.0, 2.0, 1.0]]),
        0.0,
        np.array([[-0.0, 0.0, 7.0], [0.0, 7.0, 7.0]]),
    ),
)
def test_price_rank_equals_numpy_ranking(case):
    _assert_rank_matches(*case)


def test_price_rank_orders_ties_by_distance_then_index():
    # State 0: clusters 1 and 3 tie on price past the cutoff and on
    # distance, so index decides; cluster 2 is dearer but nearer.
    candidates = [np.array([0, 1, 2, 3])]
    distances = np.array([[5.0, 9.0, 1.0, 9.0]])
    prices = np.array([[10.0, 30.0, 40.0, 30.0]])
    choice, orders = kernel_rank(candidates, distances, 0.0, prices)
    assert choice.tolist() == [[0]]
    assert orders.tolist() == [[[0, 1, 3, 2]]]
    _assert_rank_matches(candidates, distances, 0.0, prices)


@pytest.fixture(scope="module")
def problem():
    return RoutingProblem(akamai_like_deployment())


@settings(max_examples=60, deadline=None)
@given(
    threshold_km=st.sampled_from([0.0, 800.0, 1500.0, 5000.0]),
    price_threshold=THRESHOLDS,
    seed=st.integers(0, 2**32 - 1),
    tightness=st.sampled_from([0.5, 0.9, 1.1, 3.0]),
    per_step=st.booleans(),
)
def test_allocate_batch_equals_numpy_router(
    problem, threshold_km, price_threshold, seed, tightness, per_step
):
    rng = np.random.default_rng(seed)
    n_steps = int(rng.integers(1, 30))
    demand = rng.random((n_steps, problem.n_states)) * 2e4
    demand[rng.random(demand.shape) < 0.1] = 0.0
    # Hour-long runs of equal price rows, as the engine hands them over.
    hours = rng.choice([10.0, 30.0, 55.0, INF], size=(n_steps // 4 + 1, problem.n_clusters))
    prices = np.repeat(hours, 4, axis=0)[:n_steps]
    rows = n_steps if per_step else 1
    shares = 0.25 + rng.random((rows, problem.n_clusters))
    shares /= shares.sum(axis=1, keepdims=True)
    limits = shares * demand.sum(axis=1).max() / 0.87 * tightness
    limits = limits if per_step else limits[0]
    router = PriceConsciousRouter(problem, threshold_km, price_threshold)
    try:
        expected = price_oracle.allocate_batch(router, demand, prices, limits)
    except InfeasibleAllocationError:
        with pytest.raises(InfeasibleAllocationError):
            router.allocate_batch(demand, prices, limits)
        return
    assert router.allocate_batch(demand, prices, limits).tobytes() == expected.tobytes()


def test_allocate_batch_refuses_shapes_the_kernel_cannot_read(problem):
    router = PriceConsciousRouter(problem, 1500.0)
    demand = np.ones((3, problem.n_states))
    prices = np.ones((3, problem.n_clusters))
    limits = np.full(problem.n_clusters, INF)
    for bad in (
        (demand[:, 1:], prices, limits),
        (demand, prices[:2], limits),
        (demand, prices, limits[1:]),
        (demand, prices, np.ones((2, problem.n_clusters))),
    ):
        with pytest.raises(ConfigurationError, match="price router routes"):
            router.allocate_batch(*bad)
