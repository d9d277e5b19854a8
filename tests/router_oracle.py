"""The per-step routers: the bitwise oracle for every ``allocate_batch``.

Each router in ``repro.routing`` has one allocation body, its
vectorised ``allocate_batch``. Before that, each also had a scalar
``allocate``: the one-step program the batch form was written to
replay, and which the equivalence suites compared it with. Those
programs live here, unchanged, as subclasses of the production
routers. ``allocate`` is the old scalar body, with its own copies of
the helpers it shared with the batch form (the price router's
preference lexsort, the joint router's score masking), so a subclass
shares only its router's configuration; its ``allocate_batch`` raises,
so an oracle handed to the batched engine fails loudly instead of
running the production body it inherits. ``greedy_fill`` is the
one-step greedy fill those bodies called. It runs the production C walk, which
``test_routing_walk.py`` pins to ``walk_oracle.py``, and looks the walk
up on ``repro.routing.base`` at call time, so
``monkeypatch.setattr(routing_base, "_walk", walk_oracle.walk)`` swaps
the Python walk in here too.

:func:`oracle` turns a configured production router into its per-step
twin, so a suite can compare ``router.allocate_batch(...)`` with
``oracle(router).allocate(...)`` step by step, or hand the twin to
``simulate_per_step`` to run the original engine loop end to end.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InfeasibleAllocationError
from repro.routing import base as routing_base
from repro.routing.akamai import BaselineProximityRouter
from repro.routing.joint import JointOptimizationRouter
from repro.routing.price import PriceConsciousRouter
from repro.routing.static import StaticSingleHubRouter


def greedy_fill(
    demand: np.ndarray,
    preference_orders: np.ndarray | list,
    limits: np.ndarray,
    state_order: np.ndarray | None = None,
) -> np.ndarray:
    """Allocate each state's demand along its cluster preference order.

    The workhorse shared by the baseline and price-conscious routers:
    walk states (largest demand first by default), pour each state's
    demand into its most-preferred cluster with remaining headroom, and
    spill the remainder down the preference list — the paper's
    "iteratively finds another good cluster" behaviour. One step of
    ``repro.routing.base.greedy_fill_batch``'s walk.

    Parameters
    ----------
    demand:
        ``(n_states,)`` hit rates.
    preference_orders:
        Per state, cluster indices from most to least preferred: a
        rectangular ``(n_states, k)`` integer array (what the routers
        pass; ``-1`` entries are padding), or one sequence per state,
        padded here. Orders may omit clusters; a final pass
        over the unlisted clusters (by descending remaining headroom,
        ties toward the lower index) guarantees feasibility.
    limits:
        ``(n_clusters,)`` ceilings for this step.
    state_order:
        Optional processing order (defaults to descending demand, so
        big states claim their preferred clusters first and fragmented
        spill is minimised).

    Raises
    ------
    InfeasibleAllocationError
        If total demand exceeds the summed limits.
    """
    total_demand = float(demand.sum())
    total_limit = float(limits[np.isfinite(limits)].sum()) + (
        np.inf if np.isinf(limits).any() else 0.0
    )
    if total_demand > total_limit + 1e-6:
        raise InfeasibleAllocationError(
            f"demand {total_demand:.0f} hits/s exceeds total limit {total_limit:.0f}"
        )

    demand = np.asarray(demand)
    order = state_order if state_order is not None else np.argsort(-demand)
    allocation = np.zeros((1, demand.shape[0], limits.shape[0]))
    routing_base._walk(
        demand[None],
        _preference_matrix(preference_orders),
        np.array(limits, dtype=float)[None],
        np.asarray(order)[None],
        allocation,
        None,
        where="",
    )
    return allocation[0]


def _preference_matrix(preference_orders: np.ndarray | list) -> np.ndarray:
    """Per-state preference sequences as one rectangular index matrix.

    Short rows are padded with ``-1``, which the walk skips.
    """
    if isinstance(preference_orders, np.ndarray) and preference_orders.ndim == 2:
        return preference_orders
    rows = [np.asarray(prefs, dtype=np.int64).ravel() for prefs in preference_orders]
    matrix = np.full((len(rows), max((len(r) for r in rows), default=0)), -1, dtype=np.int64)
    for s, prefs in enumerate(rows):
        matrix[s, : len(prefs)] = prefs
    return matrix


class _PerStep:
    """Oracles route one step at a time: there is no batch form here."""

    def allocate_batch(self, demand, prices, limits):
        raise NotImplementedError("oracle routers have only the per-step allocate")


class OraclePriceRouter(_PerStep, PriceConsciousRouter):
    def allocate(self, demand: np.ndarray, prices: np.ndarray, limits: np.ndarray) -> np.ndarray:
        """Allocate one step's demand by price within distance limits.

        Fast path: when every state's single best candidate has room,
        the allocation is one cluster per state and is computed with
        pure array operations. Otherwise the greedy spill logic runs.
        """
        n_states, n_clusters = self._mask.shape
        masked_prices = np.where(self._mask, prices[None, :], np.inf)
        cutoff = masked_prices.min(axis=1) + self.price_threshold
        cheap = masked_prices <= cutoff[:, None]
        # Within the cheap bucket, the geographically closest wins.
        choice_key = np.where(cheap, self._masked_distance, np.inf)
        preferred = np.argmin(choice_key, axis=1)

        loads = np.bincount(preferred, weights=demand, minlength=n_clusters)
        if (loads <= limits + 1e-9).all():
            allocation = np.zeros((n_states, n_clusters))
            allocation[np.arange(n_states), preferred] = demand
            return allocation

        ranked = self._preference_orders(masked_prices, cutoff)
        return greedy_fill(demand, np.where(self._padding, -1, ranked), limits)

    def _preference_orders(self, masked_prices: np.ndarray, cutoff: np.ndarray) -> np.ndarray:
        """Every state's clusters ordered by (price bucket, distance).

        Prices within ``price_threshold`` of a state's cheapest
        candidate (``cutoff``) form the cheap bucket; within it, closer
        wins, and spill continues to pricier candidates by price, then
        distance. One stable lexsort over the ``(n_states, n_clusters)``
        candidate-masked prices orders every state at once;
        non-candidates are forced into a trailing bucket, so each row
        starts with the state's candidates in preference order.
        """
        bucket = np.where(self._mask, (masked_prices > cutoff[..., None]).astype(np.int8), 2)
        within_bucket_price = np.where(bucket == 0, 0.0, masked_prices)
        return np.lexsort((self._distances, within_bucket_price, bucket), axis=-1)


class OracleBaselineRouter(_PerStep, BaselineProximityRouter):
    def allocate(self, demand: np.ndarray, prices: np.ndarray, limits: np.ndarray) -> np.ndarray:
        """Nearest-first allocation under balancing targets.

        Prices are ignored — the baseline is price-blind by
        construction.
        """
        del prices
        total = float(demand.sum())
        targets = np.maximum(self._shares * total * self.balance_slack, self._target_floor)
        effective = np.minimum(limits, targets)
        # Guarantee feasibility: slack >= 1 makes sum(targets) >= total,
        # but the external limits may bite; fall back to them alone.
        if float(np.minimum(effective, 1e18).sum()) < total:
            effective = limits
        return greedy_fill(demand, self._order_matrix, effective)


class OracleJointRouter(_PerStep, JointOptimizationRouter):
    def _scores(self, prices: np.ndarray, projected_utilization: np.ndarray) -> np.ndarray:
        # The quadratic ramp is deliberately unbounded: a cluster
        # projected at 300% must score strictly worse than one at 200%,
        # or heavily-overloaded clusters become indistinguishable and
        # the re-score pass cannot spread a demand surge.
        congestion = self.congestion_penalty * np.square(projected_utilization)
        scores = prices[None, :] + self._distance_cost + congestion[None, :]
        return self._mask_forbidden(scores) if self._has_forbidden else scores

    def _mask_forbidden(self, scores: np.ndarray) -> np.ndarray:
        """``scores`` with every forbidden cluster at ``inf``, allowed
        scores capped at the largest finite float first."""
        return np.where(self._forbidden, np.inf, np.minimum(scores, np.finfo(np.float64).max))

    def allocate(self, demand: np.ndarray, prices: np.ndarray, limits: np.ndarray) -> np.ndarray:
        """Two-pass allocation: score, place, re-score, repair.

        The first pass scores clusters assuming the previous step's
        shape (empty system) and places each state at its argmin; the
        congestion term is then refreshed with the realised loads and
        states are re-placed once. Limits are enforced exactly by the
        greedy filler using the final score ordering.
        """
        capacities = self._problem.deployment.capacities
        utilization = np.zeros(self._problem.n_clusters)
        for _ in range(2):
            scores = self._scores(prices, utilization)
            preferred = np.argmin(scores, axis=1)
            loads = np.bincount(preferred, weights=demand, minlength=self._problem.n_clusters)
            utilization = loads / capacities

        if (loads <= limits + 1e-9).all():
            allocation = np.zeros((self._problem.n_states, self._problem.n_clusters))
            allocation[np.arange(self._problem.n_states), preferred] = demand
            return allocation
        scores = self._scores(prices, utilization)
        return greedy_fill(demand, np.argsort(scores, axis=1), limits)


class OracleStaticRouter(_PerStep, StaticSingleHubRouter):
    def allocate(self, demand: np.ndarray, prices: np.ndarray, limits: np.ndarray) -> np.ndarray:
        """All demand to the fixed cluster, regardless of price or limits."""
        del prices, limits
        allocation = np.zeros((self._problem.n_states, self._problem.n_clusters))
        allocation[:, self.cluster_index] = demand
        return allocation


ORACLES = {
    PriceConsciousRouter: OraclePriceRouter,
    BaselineProximityRouter: OracleBaselineRouter,
    JointOptimizationRouter: OracleJointRouter,
    StaticSingleHubRouter: OracleStaticRouter,
}


def oracle(router):
    """The per-step twin of a production router, configured alike."""
    twin = object.__new__(ORACLES[type(router)])
    twin.__dict__.update(router.__dict__)
    return twin
