"""The distance-constrained electricity-price optimizer (§6.1).

This is the paper's core contribution: a routing policy that maps each
client to the cheapest-energy cluster it is allowed to use.

The policy, exactly as specified in "Routing Schemes":

1. A client's *candidate set* is every cluster within the **distance
   threshold** of the client. Clients with an empty candidate set fall
   back to their geographically closest cluster plus any other cluster
   within 50 km of it (same metro area).
2. Among candidates, price differentials smaller than the **price
   threshold** ($5/MWh by default) are ignored: clusters within the
   threshold of the candidate minimum are treated as equally cheap and
   the geographically closest of them wins.
3. If the chosen cluster is near capacity or its 95/5 ceiling, demand
   iteratively spills to the next-best candidate.

Setting the distance threshold to 0 yields the *optimal distance*
scheme (strict nearest); setting it beyond coast-to-coast (~4500 km)
yields the *optimal price* scheme.
"""

from __future__ import annotations

import numpy as np

from repro._native import price_rank
from repro.errors import ConfigurationError
from repro.routing.base import Router, RoutingProblem, greedy_fill_batch

__all__ = ["PriceConsciousRouter", "DEFAULT_PRICE_THRESHOLD", "METRO_RADIUS_KM"]

#: The paper's default price threshold, $/MWh.
DEFAULT_PRICE_THRESHOLD = 5.0

#: "any other nearby clusters (< 50km)" for clients with no candidate
#: inside the distance threshold.
METRO_RADIUS_KM = 50.0


def nearest_first(candidates: list[np.ndarray], distances: np.ndarray) -> np.ndarray:
    """Each state's candidates (ascending indices) nearest first, ties
    toward the lower index, padded with -1: the ``(n_states, k)`` rows
    ``price_rank`` ranks, ``k`` being the largest candidate count."""
    width = max((c.size for c in candidates), default=0)
    rows = np.full((len(candidates), width), -1, dtype=np.int64)
    for s, cands in enumerate(candidates):
        rows[s, : cands.size] = cands[np.argsort(distances[s, cands], kind="stable")]
    return rows


class PriceConsciousRouter(Router):
    """Cheapest-electricity routing under distance/price thresholds."""

    def __init__(
        self,
        problem: RoutingProblem,
        distance_threshold_km: float,
        price_threshold: float = DEFAULT_PRICE_THRESHOLD,
    ) -> None:
        if distance_threshold_km < 0:
            raise ConfigurationError("distance threshold must be non-negative")
        if price_threshold < 0:
            raise ConfigurationError("price threshold must be non-negative")
        self._problem = problem
        self.distance_threshold_km = distance_threshold_km
        self.price_threshold = price_threshold

        distances = problem.distances.matrix
        self._distances = np.ascontiguousarray(distances, dtype=np.float64)
        self._candidates: list[np.ndarray] = []
        for s in range(problem.n_states):
            within = np.flatnonzero(distances[s] <= distance_threshold_km)
            if within.size == 0:
                nearest = int(np.argmin(distances[s]))
                metro = np.flatnonzero(distances[s] <= distances[s, nearest] + METRO_RADIUS_KM)
                within = np.union1d(np.array([nearest]), metro)
            self._candidates.append(within)
        self._by_distance = nearest_first(self._candidates, self._distances)

    @property
    def candidate_sets(self) -> list[np.ndarray]:
        """Per-state candidate cluster indices (copies)."""
        return [c.copy() for c in self._candidates]

    def allocate_batch(
        self,
        demand: np.ndarray,
        prices: np.ndarray,
        limits: np.ndarray,
    ) -> np.ndarray:
        """Allocate each step's demand by price within distance limits.

        The C kernel ``price_rank`` (``repro/kernels.c``) picks every
        state's cluster: the closest of its candidates priced within
        ``price_threshold`` of the cheapest. Steps where those choices
        fit every limit take them; the others list their candidates
        by (price bucket, price beyond the bucket, distance) and take
        the greedy spill along those orders instead.
        """
        demand = np.ascontiguousarray(demand, dtype=np.float64)
        prices = np.ascontiguousarray(prices, dtype=np.float64)
        limits = np.ascontiguousarray(limits, dtype=np.float64)
        n_steps = demand.shape[0]
        (n_states, n_clusters), n_prefs = self._distances.shape, self._by_distance.shape[1]
        # The kernel reads these arrays unchecked.
        if (
            demand.shape != (n_steps, n_states)
            or prices.shape != (n_steps, n_clusters)
            or limits.shape not in ((n_clusters,), (n_steps, n_clusters))
        ):
            raise ConfigurationError(
                f"price router routes {n_states} states over {n_clusters} clusters, got "
                f"demand {demand.shape}, prices {prices.shape} and limits {limits.shape}"
            )
        # price_rank fills the fitting rows and the walk the spilling ones.
        allocation = np.empty((n_steps, n_states, n_clusters))
        spill = np.empty(n_steps, dtype=np.int64)
        blocks = np.empty(n_steps, dtype=np.int64)
        orders = np.empty((n_steps, n_states, n_prefs), dtype=np.int64)
        n_spill = price_rank(
            n_steps,
            n_states,
            n_clusters,
            n_prefs,
            prices.ctypes.data,
            self._by_distance.ctypes.data,
            self._distances.ctypes.data,
            self.price_threshold,
            demand.ctypes.data,
            limits.ctypes.data,
            1 if limits.ndim == 1 else n_steps,
            allocation.ctypes.data,
            spill.ctypes.data,
            blocks.ctypes.data,
            orders.ctypes.data,
        )
        if n_spill < 0:
            raise MemoryError("price_rank could not allocate its scratch buffers")
        if n_spill:
            spill, blocks = spill[:n_spill], blocks[:n_spill]
            greedy_fill_batch(
                demand[spill],
                orders[: blocks[-1] + 1],
                limits[spill] if limits.ndim == 2 else limits,
                preference_rows=blocks,
                out=allocation,
                out_rows=spill,
            )
        return allocation
