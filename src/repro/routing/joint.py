"""Joint optimization of electricity price, distance, and congestion (§8).

"Existing systems already have frameworks in place that engineer
traffic to optimize for bandwidth costs, performance, and reliability.
Dynamic energy costs represent another input that should be integrated
into such frameworks."

The paper's own optimizer treats bandwidth and performance as hard
*constraints*; this router is the future-work variant that folds them
into one soft objective. Each state scores every candidate cluster as

    score = price
          + distance_penalty_per_1000km * distance / 1000
          + congestion_penalty * utilization_headroom_term

and demand flows greedily along ascending scores. Setting both
penalties to zero recovers the pure price optimizer's first choice;
a huge distance penalty recovers proximity routing — both limits are
pinned by tests.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.routing.base import Router, RoutingProblem, greedy_fill_batch

__all__ = ["JointOptimizationRouter"]

#: Ceiling for an allowed cluster's score (see ``_mask_forbidden``).
_MAX_SCORE = np.finfo(np.float64).max


class JointOptimizationRouter(Router):
    """Soft-objective router over price, distance, and congestion.

    Parameters
    ----------
    problem:
        Shared routing context.
    distance_penalty_per_1000km:
        Dollars per MWh a client is "charged" for each 1000 km of
        client-server distance; encodes the performance objective.
    congestion_penalty:
        Dollars per MWh added as a cluster's projected utilization
        approaches 1 (quadratic ramp); encodes the load-balancing
        objective and keeps the system off capacity cliffs.
    distance_threshold_km:
        Optional hard performance constraint on top of the soft
        objective (None = unconstrained).
    """

    def __init__(
        self,
        problem: RoutingProblem,
        distance_penalty_per_1000km: float = 10.0,
        congestion_penalty: float = 50.0,
        distance_threshold_km: float | None = None,
    ) -> None:
        if distance_penalty_per_1000km < 0 or congestion_penalty < 0:
            raise ConfigurationError("penalties must be non-negative")
        self._problem = problem
        self.distance_penalty_per_1000km = distance_penalty_per_1000km
        self.congestion_penalty = congestion_penalty
        self.distance_threshold_km = distance_threshold_km
        distances = problem.distances.matrix
        self._distance_cost = distance_penalty_per_1000km * distances / 1000.0
        if distance_threshold_km is not None:
            allowed = distances <= distance_threshold_km
            # Metro fallback as in the price router: never strand a state.
            for s in range(problem.n_states):
                if not allowed[s].any():
                    allowed[s, int(np.argmin(distances[s]))] = True
            self._forbidden = ~allowed
        else:
            self._forbidden = np.zeros_like(distances, dtype=bool)
        self._has_forbidden = bool(self._forbidden.any())

    def _mask_forbidden(self, scores: np.ndarray) -> np.ndarray:
        """``scores`` (``(..., n_states, n_clusters)``) with every
        forbidden cluster at ``inf``.

        Allowed scores are capped at the largest finite float first, so
        an allowed cluster priced at ``inf`` still ranks ahead of every
        forbidden one and a state is never placed outside its allowed
        set while capacity is no object. Finite scores pass unchanged.
        """
        return np.where(self._forbidden, np.inf, np.minimum(scores, _MAX_SCORE))

    def allocate_batch(
        self,
        demand: np.ndarray,
        prices: np.ndarray,
        limits: np.ndarray,
    ) -> np.ndarray:
        """Two-pass allocation: score, place, re-score, repair.

        The first pass scores clusters for an empty system and places
        each state at its argmin; the congestion term is then refreshed
        with the realised loads and states are re-placed once. Steps
        whose placement violates a limit re-score with the realised
        utilization and repair through :func:`greedy_fill_batch` on
        ``argsort(axis=-1)`` orders, so limits are enforced exactly.

        Both passes run over all ``T`` steps at once on a ``(T,
        n_states, n_clusters)`` score tensor, scoring ``(price +
        distance) + congestion`` per element. The load projection is
        one flat ``bincount`` over combined ``(step, cluster)`` keys,
        which accumulates each step's weights in ascending-state order,
        so a step's loads do not depend on the steps batched with it.
        Three facts let the passes shed most of their work:

        - the ``price + distance`` term is congestion-independent, so
          one ``base`` tensor serves every pass;
        - the first pass's congestion term is exactly zero, and adding
          zero can only flip ``-0.0`` signs — invisible to the argmin
          that is the term's sole consumer — so the add is skipped;
        - :meth:`_mask_forbidden` runs only when a distance threshold
          actually forbids something, so it never moves a bit of an
          unconstrained router.

        The greedy repair then writes straight into the allocation
        tensor (``out=``/``out_rows``) instead of materialising a
        spill-sized tensor and copying it in.
        """
        n_steps = demand.shape[0]
        n_states = self._problem.n_states
        n_clusters = self._problem.n_clusters

        capacities = self._problem.deployment.capacities
        rows = np.arange(n_steps)

        # base = price + distance term, shared by every scoring pass.
        base = prices[:, None, :] + self._distance_cost[None, :, :]

        # Pass 1: empty system (congestion exactly zero).
        if self._has_forbidden:
            scores = self._mask_forbidden(base)
        else:
            scores = base
        preferred = np.argmin(scores, axis=2)
        flat = (rows[:, None] * n_clusters + preferred).ravel()
        loads = np.bincount(
            flat, weights=demand.ravel(), minlength=n_steps * n_clusters
        ).reshape(n_steps, n_clusters)
        utilization = loads / capacities[None, :]

        # Pass 2: congestion refreshed with the realised loads. The
        # spill re-score below reuses this tensor as scratch. The
        # quadratic ramp is deliberately unbounded: a cluster projected
        # at 300% must score strictly worse than one at 200%, or
        # heavily-overloaded clusters become indistinguishable and the
        # re-score pass cannot spread a demand surge.
        congestion = self.congestion_penalty * np.square(utilization)
        scratch = base + congestion[:, None, :]
        if self._has_forbidden:
            scores = self._mask_forbidden(scratch)
        else:
            scores = scratch
        preferred = np.argmin(scores, axis=2)
        flat = (rows[:, None] * n_clusters + preferred).ravel()
        loads = np.bincount(
            flat, weights=demand.ravel(), minlength=n_steps * n_clusters
        ).reshape(n_steps, n_clusters)
        utilization = loads / capacities[None, :]

        fits = (loads <= limits + 1e-9).all(axis=1)
        allocation = np.zeros((n_steps, n_states, n_clusters))
        fast = fits.nonzero()[0]
        if fast.size:
            allocation[fast[:, None], np.arange(n_states)[None, :], preferred[fast]] = demand[fast]
        spill = (~fits).nonzero()[0]
        if spill.size:
            # Only the violating steps pay for the final re-score and
            # the full argsort orders; elementwise the scores are the
            # same as the all-steps tensor would be.
            congestion = self.congestion_penalty * np.square(utilization[spill])
            sub = np.take(base, spill, axis=0, out=scratch[: spill.size])
            np.add(sub, congestion[:, None, :], out=sub)
            if self._has_forbidden:
                scores = self._mask_forbidden(sub)
            else:
                scores = sub
            orders = np.argsort(scores, axis=2)
            greedy_fill_batch(
                demand[spill],
                orders,
                limits[spill] if limits.ndim == 2 else limits,
                out=allocation,
                out_rows=spill,
            )
        return allocation
