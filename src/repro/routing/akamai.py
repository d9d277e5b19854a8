"""The baseline router ("Akamai's original allocation").

The paper benchmarks price-aware routing against Akamai's actual
client-to-cluster assignment. We cannot replay the proprietary mapping
system, so this router reproduces its documented *behaviour*:

* strong geographic locality — clients go to a nearby cluster when
  possible (§4 observes geo-locality in the trace),
* aggressive bandwidth-cost engineering — §4: "Bandwidth costs are
  significant for Akamai, and thus their system is aggressively
  optimized to reduce bandwidth costs", and clients are sometimes
  "moved to distant clusters because of 95/5 bandwidth constraints".
  Minimising 95/5 bills means flattening each cluster's load peaks, so
  the baseline balances load toward capacity-proportional shares
  rather than letting any one cluster's 95th percentile balloon,
* capacity respected, with overflow to the next-preferred site.

Electricity prices are invisible to it, which is precisely the point
of the comparison. The router is deterministic: baselines must be
identical across scenarios for cost normalisation to mean anything.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.routing.base import Router, RoutingProblem, greedy_fill_batch

__all__ = ["BaselineProximityRouter"]


class BaselineProximityRouter(Router):
    """Locality-preferring, bandwidth-balancing baseline allocation.

    Each state prefers clusters nearest-first, but per-cluster loads
    are held near capacity-proportional shares of the step's total
    demand (within ``balance_slack``). The result is the 95/5-engineered
    shape: every cluster's load profile tracks national demand, and its
    95th percentile sits close to its proportional share of the
    national 95th percentile — the tight ceilings that §6.2 shows cut
    price-chasing savings to roughly a third.

    Parameters
    ----------
    problem:
        Shared routing context.
    balance_slack:
        How far above its capacity-proportional share a cluster may
        sit. 1.0 is perfect balancing (maximum bandwidth efficiency,
        zero locality); large values disable balancing entirely.
    """

    def __init__(
        self,
        problem: RoutingProblem,
        balance_slack: float = 1.15,
        min_target_fraction: float = 0.02,
    ) -> None:
        if balance_slack < 1.0:
            raise ConfigurationError("balance slack must be >= 1.0")
        if not 0.0 <= min_target_fraction <= 1.0:
            raise ConfigurationError("min target fraction must be in [0, 1]")
        self._problem = problem
        self.balance_slack = balance_slack
        self.min_target_fraction = min_target_fraction
        distances = problem.distances.matrix
        # Nearest-first cluster order per state, (n_states, n_clusters).
        self._order_matrix = np.argsort(distances, axis=1)
        capacities = problem.deployment.capacities
        self._shares = capacities / capacities.sum()
        # Balancing targets only matter at bandwidth-relevant scale; a
        # floor of a few percent of capacity keeps tiny demand local
        # instead of scattering it across the country.
        self._target_floor = capacities * min_target_fraction

    @property
    def capacity_shares(self) -> np.ndarray:
        """Per-cluster capacity fractions used as balancing targets."""
        return self._shares.copy()

    def allocate_batch(
        self,
        demand: np.ndarray,
        prices: np.ndarray,
        limits: np.ndarray,
    ) -> np.ndarray:
        """Nearest-first allocation under balancing targets.

        Prices are ignored — the baseline is price-blind by
        construction. Balancing targets depend only on each step's
        total demand, so the per-step effective limits vectorise
        directly; where the external limits bite so hard that the
        targets cannot hold a step's demand, that step falls back to
        the limits alone (slack >= 1 makes the targets' sum cover the
        demand otherwise). The greedy spill then runs once over the
        whole batch.
        """
        del prices
        totals = demand.sum(axis=1)
        targets = np.maximum(
            self._shares[None, :] * totals[:, None] * self.balance_slack,
            self._target_floor,
        )
        effective = np.minimum(limits, targets)
        infeasible = np.minimum(effective, 1e18).sum(axis=1) < totals
        if infeasible.any():
            effective[infeasible] = np.broadcast_to(limits, effective.shape)[infeasible]
        return greedy_fill_batch(demand, self._order_matrix, effective)
