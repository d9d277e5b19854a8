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

from repro.errors import ConfigurationError
from repro.routing.base import Router, RoutingProblem, greedy_fill_batch

__all__ = ["PriceConsciousRouter", "DEFAULT_PRICE_THRESHOLD", "METRO_RADIUS_KM"]

#: The paper's default price threshold, $/MWh.
DEFAULT_PRICE_THRESHOLD = 5.0

#: "any other nearby clusters (< 50km)" for clients with no candidate
#: inside the distance threshold.
METRO_RADIUS_KM = 50.0


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
        self._distances = distances
        self._candidates: list[np.ndarray] = []
        for s in range(problem.n_states):
            within = np.flatnonzero(distances[s] <= distance_threshold_km)
            if within.size == 0:
                nearest = int(np.argmin(distances[s]))
                metro = np.flatnonzero(distances[s] <= distances[s, nearest] + METRO_RADIUS_KM)
                within = np.union1d(np.array([nearest]), metro)
            self._candidates.append(within)
        # Dense candidate mask and masked-distance matrix for the
        # vectorised fast path.
        self._mask = np.zeros_like(distances, dtype=bool)
        for s, cands in enumerate(self._candidates):
            self._mask[s, cands] = True
        self._masked_distance = np.where(self._mask, distances, np.inf)
        self._candidate_counts = np.array([c.size for c in self._candidates])
        # Positions past a state's candidates: the spill orders pad
        # them with -1 (skipped by the greedy walk), so spill beyond
        # the candidate set is left to the walk's fallback pass over
        # the non-candidate clusters.
        self._padding = np.arange(problem.n_clusters)[None, :] >= self._candidate_counts[:, None]

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

        Fast path: the cheap-bucket / closest-within-bucket choice is
        computed for every step at once and the per-step loads via one
        flat bincount over time; where every state's single best
        candidate has room, the step's allocation is one cluster per
        state. Steps whose single-best choice would overflow a limit
        take the greedy spill along their preference orders instead.

        The choice and the spill preference orders depend on a step's
        price row alone, and hourly prices repeat over the steps of an
        hour, so both are computed once per run of consecutive equal
        price rows (a ``(runs, n_states, n_clusters)`` tensor) and
        gathered per step. Equal rows give equal comparisons (``-0.0
        == 0.0`` included); a row holding NaN equals no row and stays
        a run of its own.
        """
        n_steps = demand.shape[0]
        n_states, n_clusters = self._mask.shape

        starts = np.empty(n_steps, dtype=bool)
        starts[:1] = True
        (prices[1:] != prices[:-1]).any(axis=1, out=starts[1:])
        run_of = starts.cumsum(dtype=np.intp) - 1
        masked_prices = np.where(self._mask[None, :, :], prices[starts][:, None, :], np.inf)
        cutoff = masked_prices.min(axis=2) + self.price_threshold
        cheap = masked_prices <= cutoff[:, :, None]
        choice_key = np.where(cheap, self._masked_distance[None, :, :], np.inf)
        preferred = choice_key.argmin(axis=2)[run_of]

        flat = (np.arange(n_steps)[:, None] * n_clusters + preferred).ravel()
        loads = np.bincount(
            flat,
            weights=demand.ravel(),
            minlength=n_steps * n_clusters,
        ).reshape(n_steps, n_clusters)
        fits = (loads <= limits + 1e-9).all(axis=1)

        allocation = np.zeros((n_steps, n_states, n_clusters))
        fast = fits.nonzero()[0]
        if fast.size:
            allocation[fast[:, None], np.arange(n_states)[None, :], preferred[fast]] = demand[fast]
        spill = (~fits).nonzero()[0]
        if spill.size:
            # Orders are built, and padded, for the runs holding a
            # spilling step only; each spilling step walks its run's
            # block.
            spill_run = run_of[spill]
            ranked_runs = np.zeros(len(masked_prices), dtype=bool)
            ranked_runs[spill_run] = True
            ranked = self._preference_orders(masked_prices[ranked_runs], cutoff[ranked_runs])
            spill_run = (ranked_runs.cumsum() - 1)[spill_run]
            greedy_fill_batch(
                demand[spill],
                np.where(self._padding, -1, ranked),
                limits[spill] if limits.ndim == 2 else limits,
                preference_rows=spill_run,
                out=allocation,
                out_rows=spill,
            )
        return allocation

    def _preference_orders(self, masked_prices: np.ndarray, cutoff: np.ndarray) -> np.ndarray:
        """Every state's clusters ordered by (price bucket, distance).

        Prices within ``price_threshold`` of a state's cheapest
        candidate (``cutoff``) form the cheap bucket; within it, closer
        wins, and spill continues to pricier candidates by price, then
        distance. One stable lexsort over the last axis of the
        ``(..., n_states, n_clusters)`` candidate-masked prices orders
        every state of every step at once; non-candidates are forced
        into a trailing bucket, so each row starts with the state's
        candidates in preference order.
        """
        bucket = np.where(self._mask, (masked_prices > cutoff[..., None]).astype(np.int8), 2)
        within_bucket_price = np.where(bucket == 0, 0.0, masked_prices)
        distance_key = np.broadcast_to(self._distances, masked_prices.shape)
        return np.lexsort((distance_key, within_bucket_price, bucket), axis=-1)
