"""Static placement baselines (§6.3, Fig. 18's "Only use cheapest hub").

The paper contrasts the dynamic optimizer with the best *static*
solution: move every server into the single market with the lowest
average price. A static system pays that one hub's price for all
demand, rain or shine — the comparison shows that dynamically chasing
differentials beats even a perfectly chosen fixed location (45% vs 35%
maximum savings).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.routing.base import Router, RoutingProblem

__all__ = ["StaticSingleHubRouter", "cheapest_cluster_index"]


def cheapest_cluster_index(problem: RoutingProblem, mean_prices: np.ndarray) -> int:
    """Index of the cluster whose hub has the lowest mean price.

    ``mean_prices`` must be per-cluster means over the *whole*
    simulation horizon, i.e. the static planner is granted oracle
    knowledge of average prices — the strongest version of the
    static alternative.
    """
    if mean_prices.shape != (problem.n_clusters,):
        raise ConfigurationError("mean_prices must have one entry per cluster")
    return int(np.argmin(mean_prices))


class StaticSingleHubRouter(Router):
    """Route every request to one fixed cluster.

    Models the consolidated deployment: all the system's servers are
    assumed relocated to the chosen site, so per-site capacity limits
    do not apply (the engine runs this router with relaxed limits and
    an energy model whose server count is the whole fleet).
    """

    def __init__(self, problem: RoutingProblem, cluster_index: int) -> None:
        if not 0 <= cluster_index < problem.n_clusters:
            raise ConfigurationError(
                f"cluster index {cluster_index} out of range 0..{problem.n_clusters - 1}"
            )
        self._problem = problem
        self.cluster_index = cluster_index

    def allocate_batch(
        self,
        demand: np.ndarray,
        prices: np.ndarray,
        limits: np.ndarray,
    ) -> np.ndarray:
        """All demand to the fixed cluster, regardless of price or limits."""
        del prices, limits
        n_steps, n_states = demand.shape
        allocation = np.zeros((n_steps, n_states, self._problem.n_clusters))
        allocation[:, :, self.cluster_index] = demand
        return allocation
