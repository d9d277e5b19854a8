"""Simulation results: energy, cost, and distance accounting.

The engine records *what happened* (per-step cluster loads, the prices
that were actually paid, where demand travelled); this module turns
that record into the paper's reported quantities. Energy parameters
are applied **after** simulation — the router never sees them (§6.1's
optimizer is price-driven, not energy-model-driven) — so one routing
run can be costed under all seven Fig. 15 energy models for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from repro.energy.model import EnergyModelParams
from repro.errors import ConfigurationError
from repro.traffic.percentile import percentile_95
from repro.units import SECONDS_PER_HOUR

__all__ = ["DistanceProfile", "SimulationResult"]

#: Width of the client-server distance histogram bins, km.
DISTANCE_BIN_KM = 25.0

#: Upper edge of the distance histogram (continental scale).
DISTANCE_MAX_KM = 6_000.0


@dataclass(frozen=True, slots=True)
class DistanceProfile:
    """Demand-weighted client-server distance distribution.

    ``histogram[i]`` is the total hits served at distances in
    ``[i * DISTANCE_BIN_KM, (i+1) * DISTANCE_BIN_KM)``.
    """

    histogram: np.ndarray

    @property
    def total_hits(self) -> float:
        return float(self.histogram.sum())

    @property
    def mean_km(self) -> float:
        """Demand-weighted mean distance (bin midpoints)."""
        total = self.total_hits
        if total <= 0:
            return 0.0
        mids = (np.arange(self.histogram.size) + 0.5) * DISTANCE_BIN_KM
        return float(np.sum(mids * self.histogram) / total)

    def percentile_km(self, percentile: float) -> float:
        """Demand-weighted distance percentile (upper bin edge)."""
        if not 0.0 < percentile <= 100.0:
            raise ConfigurationError(f"percentile must be in (0, 100], got {percentile}")
        total = self.total_hits
        if total <= 0:
            return 0.0
        cum = np.cumsum(self.histogram)
        idx = int(np.searchsorted(cum, percentile / 100.0 * total, side="left"))
        return float((min(idx, self.histogram.size - 1) + 1) * DISTANCE_BIN_KM)


class SimulationResult:
    """Record of one routing simulation.

    Parameters
    ----------
    start:
        Wall-clock start of the simulated window.
    step_seconds:
        Simulation step (3600 for hourly runs, 300 for trace replay).
    cluster_labels:
        Cluster order of all per-cluster arrays.
    capacities:
        Per-cluster hits/s capacities used for utilization.
    server_counts:
        Per-cluster server counts used for energy accounting.
    loads:
        ``(n_steps, n_clusters)`` served hits/s.
    paid_prices:
        ``(n_steps, n_clusters)`` the *actual* hourly price during each
        step (not the lagged price the router saw), $/MWh.
    distance_histogram:
        Demand-weighted distance histogram (see :class:`DistanceProfile`).
    """

    def __init__(
        self,
        start: datetime,
        step_seconds: int,
        cluster_labels: tuple[str, ...],
        capacities: np.ndarray,
        server_counts: np.ndarray,
        loads: np.ndarray,
        paid_prices: np.ndarray,
        distance_histogram: np.ndarray,
    ) -> None:
        n_clusters = len(cluster_labels)
        if loads.ndim != 2 or loads.shape[1] != n_clusters:
            raise ConfigurationError("loads must be (n_steps, n_clusters)")
        if paid_prices.shape != loads.shape:
            raise ConfigurationError("paid_prices must match loads shape")
        if capacities.shape != (n_clusters,) or server_counts.shape != (n_clusters,):
            raise ConfigurationError("per-cluster arrays must have one entry per cluster")
        self.start = start
        self.step_seconds = int(step_seconds)
        self.cluster_labels = cluster_labels
        for arr in (capacities, server_counts, loads, paid_prices, distance_histogram):
            arr.setflags(write=False)
        self.capacities = capacities
        self.server_counts = server_counts
        self.loads = loads
        self.paid_prices = paid_prices
        self.distance_profile = DistanceProfile(distance_histogram)
        self._utilization: np.ndarray | None = None
        self._costs: dict[EnergyModelParams, np.ndarray] = {}

    # -- shape -------------------------------------------------------------

    @property
    def n_steps(self) -> int:
        return int(self.loads.shape[0])

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_labels)

    @property
    def duration_hours(self) -> float:
        return self.n_steps * self.step_seconds / SECONDS_PER_HOUR

    # -- load statistics ------------------------------------------------------

    def utilization(self) -> np.ndarray:
        """Per-step, per-cluster utilization in [0, 1].

        Computed on the first call; every call returns that read-only
        array.
        """
        if self._utilization is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                u = np.where(self.capacities > 0, self.loads / self.capacities, 0.0)
            self._utilization = np.clip(u, 0.0, 1.0)
            self._utilization.setflags(write=False)
        return self._utilization

    def mean_utilization(self) -> float:
        """System-wide average utilization, capacity-weighted."""
        total_capacity = float(self.capacities.sum())
        if total_capacity <= 0:
            return 0.0
        return float(self.loads.sum(axis=1).mean() / total_capacity)

    def percentiles_95(self) -> np.ndarray:
        """Per-cluster 95th percentile of served load (the bill basis)."""
        return percentile_95(self.loads)

    def total_hits(self) -> float:
        """Total requests served over the run."""
        return float(self.loads.sum() * self.step_seconds)

    # -- energy and cost ---------------------------------------------------------

    def energy_mwh(self, params: EnergyModelParams) -> np.ndarray:
        """Per-step, per-cluster energy under an energy model, MWh.

        Vectorised §5.1 model: each cluster's fixed power plus the
        2u - u^r variable term, scaled by its server count.
        """
        u = self.utilization()
        p_idle = params.idle_power_watts
        p_peak = params.peak_power_watts
        fixed_per_server = p_idle + (params.pue - 1.0) * p_peak
        shape = 2.0 * u - np.power(u, params.exponent)
        watts = self.server_counts[None, :] * (
            fixed_per_server + (p_peak - p_idle) * shape
        ) + params.correction_watts
        return watts * self.step_seconds / (1e6 * SECONDS_PER_HOUR)

    def cost_by_cluster(self, params: EnergyModelParams) -> np.ndarray:
        """Total electricity cost per cluster, dollars.

        Computed once per energy model; every call with an equal model
        returns that read-only array, so costing a baseline against
        several runs, or reading a run's cost and its savings, prices
        its energy once.
        """
        cost = self._costs.get(params)
        if cost is None:
            cost = np.sum(self.energy_mwh(params) * self.paid_prices, axis=0)
            cost.setflags(write=False)
            self._costs[params] = cost
        return cost

    def total_cost(self, params: EnergyModelParams) -> float:
        """Total electricity cost of the run, dollars."""
        return float(self.cost_by_cluster(params).sum())

    def total_energy_mwh(self, params: EnergyModelParams) -> float:
        return float(self.energy_mwh(params).sum())

    def savings_vs(self, baseline: "SimulationResult", params: EnergyModelParams) -> float:
        """Fractional cost reduction relative to a baseline run.

        Both runs are costed under the same energy model, matching
        Fig. 15's normalisation ("savings ... as a percentage of the
        total electricity cost of running Akamai's actual routing
        scheme under that energy model").
        """
        base = baseline.total_cost(params)
        if base <= 0:
            raise ConfigurationError("baseline cost must be positive")
        return 1.0 - self.total_cost(params) / base

    def normalized_cost(self, baseline: "SimulationResult", params: EnergyModelParams) -> float:
        """Cost relative to baseline (Figs. 16/18's y-axis)."""
        return 1.0 - self.savings_vs(baseline, params)

    # -- distance ---------------------------------------------------------------

    @property
    def mean_distance_km(self) -> float:
        return self.distance_profile.mean_km

    def distance_percentile_km(self, percentile: float = 99.0) -> float:
        return self.distance_profile.percentile_km(percentile)
