"""Hypothesis equivalence suite for ``JointOptimizationRouter.allocate_batch``.

The joint router's vectorised batch path must replay the two-pass
score/place/re-score loop (and the greedy repair) of its per-step
oracle (``router_oracle.OracleJointRouter``, the scalar program it
replaced) *bit for bit*. This suite pins that over randomized penalty pairs, distance
thresholds, 2–9-cluster rosters, and limit regimes from never-binding
to barely-feasible — alongside the conservation and limit-safety
invariants every allocation must satisfy.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import InfeasibleAllocationError
from repro.routing.base import RoutingProblem
from repro.routing.joint import JointOptimizationRouter
from repro.traffic.clusters import ClusterDeployment, akamai_like_deployment

from router_oracle import oracle

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

penalties = st.floats(0.0, 120.0, allow_nan=False)
thresholds = st.sampled_from((None, 0.0, 500.0, 1500.0, 5000.0))


@st.composite
def joint_cases(draw):
    """A configured joint router plus a matching (T, demand, prices) batch."""
    prob = problem_for(draw(subsets))
    router = JointOptimizationRouter(
        prob,
        distance_penalty_per_1000km=draw(penalties),
        congestion_penalty=draw(penalties),
        distance_threshold_km=draw(thresholds),
    )
    n_steps = draw(st.integers(1, 8))
    demand = draw(
        arrays(
            np.float64,
            (n_steps, prob.n_states),
            elements=st.floats(0.0, 50_000.0, allow_nan=False),
        )
    )
    prices = draw(
        arrays(
            np.float64,
            (n_steps, prob.n_clusters),
            elements=st.floats(-40.0, 500.0, allow_nan=False),
        )
    )
    return prob, router, demand, prices


def tight_limits(prob: RoutingProblem, demand: np.ndarray, margin: float) -> np.ndarray:
    """Uneven per-cluster ceilings summing to ``margin`` x peak demand."""
    weights = np.linspace(1.0, 3.0, prob.n_clusters)
    peak = float(demand.sum(axis=1).max())
    return (peak + 1.0) * margin * weights / weights.sum()


class TestBatchEquivalence:
    @given(case=joint_cases())
    @settings(max_examples=60, deadline=None)
    def test_unconstrained_batch_is_bitwise_scalar(self, case):
        prob, router, demand, prices = case
        limits = np.full(prob.n_clusters, np.inf)
        batch = router.allocate_batch(demand, prices, limits)
        twin = oracle(router)
        for t in range(demand.shape[0]):
            assert np.array_equal(batch[t], twin.allocate(demand[t], prices[t], limits))

    @given(case=joint_cases(), margin=st.sampled_from((1.02, 1.3, 3.0)))
    @settings(max_examples=60, deadline=None)
    def test_spill_batch_is_bitwise_scalar(self, case, margin):
        """Limits tight enough to force the greedy repair pass."""
        prob, router, demand, prices = case
        limits = tight_limits(prob, demand, margin)
        batch = router.allocate_batch(demand, prices, limits)
        twin = oracle(router)
        for t in range(demand.shape[0]):
            assert np.array_equal(batch[t], twin.allocate(demand[t], prices[t], limits))

    @given(case=joint_cases())
    @settings(max_examples=25, deadline=None)
    def test_infeasible_steps_raise_like_scalar(self, case):
        prob, router, demand, prices = case
        # Ceilings below the peak step's demand: that step is
        # infeasible for the scalar path, so the batch must raise too.
        limits = tight_limits(prob, demand, 0.5)
        if float(demand.sum(axis=1).max()) < 2.0:
            return  # (peak + 1) * 0.5 only undercuts peaks above 1
        twin = oracle(router)
        with pytest.raises(InfeasibleAllocationError):
            np.stack([twin.allocate(demand[t], prices[t], limits) for t in range(len(demand))])
        with pytest.raises(InfeasibleAllocationError):
            router.allocate_batch(demand, prices, limits)

    @given(case=joint_cases())
    @settings(max_examples=25, deadline=None)
    def test_per_step_limit_rows_match_shared_limits(self, case):
        """A (T, C) limits tensor of identical rows equals the shared form."""
        prob, router, demand, prices = case
        limits = tight_limits(prob, demand, 1.5)
        shared = router.allocate_batch(demand, prices, limits)
        tiled = router.allocate_batch(demand, prices, np.tile(limits, (demand.shape[0], 1)))
        assert np.array_equal(shared, tiled)


class TestBatchInvariants:
    @given(case=joint_cases())
    @settings(max_examples=40, deadline=None)
    def test_conservation(self, case):
        prob, router, demand, prices = case
        limits = np.full(prob.n_clusters, np.inf)
        batch = router.allocate_batch(demand, prices, limits)
        assert batch.shape == (demand.shape[0], prob.n_states, prob.n_clusters)
        assert np.all(batch >= 0.0)
        assert np.allclose(batch.sum(axis=2), demand, rtol=1e-9, atol=1e-6)

    @given(case=joint_cases(), margin=st.sampled_from((1.05, 2.0)))
    @settings(max_examples=40, deadline=None)
    def test_limit_safety(self, case, margin):
        prob, router, demand, prices = case
        limits = tight_limits(prob, demand, margin)
        batch = router.allocate_batch(demand, prices, limits)
        assert np.all(batch.sum(axis=1) <= limits[None, :] + 1e-6)
        assert np.allclose(batch.sum(axis=2), demand, rtol=1e-9, atol=1e-6)

    @given(case=joint_cases())
    @settings(max_examples=25, deadline=None)
    def test_bitwise_deterministic_across_calls(self, case):
        prob, router, demand, prices = case
        limits = tight_limits(prob, demand, 1.5)
        first = router.allocate_batch(demand, prices, limits)
        assert np.array_equal(router.allocate_batch(demand, prices, limits), first)
