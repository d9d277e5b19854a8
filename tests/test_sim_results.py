"""Tests for repro.sim.results."""

from datetime import datetime

import numpy as np
import pytest

from repro.energy import FULLY_ELASTIC, GOOGLE_LIKE, NO_POWER_MANAGEMENT
from repro.energy.model import ClusterPowerModel
from repro.errors import ConfigurationError
from repro.sim.results import DISTANCE_BIN_KM, DistanceProfile, SimulationResult


def make_result(loads, prices, capacities=None, servers=None):
    loads = np.asarray(loads, dtype=float)
    n_clusters = loads.shape[1]
    capacities = (
        np.asarray(capacities, dtype=float)
        if capacities is not None
        else np.full(n_clusters, 1000.0)
    )
    servers = (
        np.asarray(servers, dtype=float)
        if servers is not None
        else np.full(n_clusters, 10.0)
    )
    histogram = np.zeros(240)
    histogram[4] = loads.sum()
    return SimulationResult(
        start=datetime(2008, 12, 16),
        step_seconds=3600,
        cluster_labels=tuple(f"C{i}" for i in range(n_clusters)),
        capacities=capacities,
        server_counts=servers,
        loads=loads,
        paid_prices=np.asarray(prices, dtype=float),
        distance_histogram=histogram,
    )


class TestDistanceProfile:
    def test_mean_uses_bin_midpoints(self):
        histogram = np.zeros(10)
        histogram[2] = 4.0
        profile = DistanceProfile(histogram)
        assert profile.mean_km == pytest.approx(2.5 * DISTANCE_BIN_KM)

    def test_percentile(self):
        histogram = np.zeros(10)
        histogram[0] = 90.0
        histogram[9] = 10.0
        profile = DistanceProfile(histogram)
        assert profile.percentile_km(50.0) == pytest.approx(DISTANCE_BIN_KM)
        assert profile.percentile_km(99.0) == pytest.approx(10 * DISTANCE_BIN_KM)

    def test_empty(self):
        profile = DistanceProfile(np.zeros(5))
        assert profile.mean_km == 0.0
        assert profile.percentile_km(99.0) == 0.0

    def test_bad_percentile(self):
        with pytest.raises(ConfigurationError):
            DistanceProfile(np.ones(5)).percentile_km(0.0)


class TestEnergyAccounting:
    def test_energy_matches_power_model(self):
        result = make_result([[500.0, 0.0]], [[60.0, 60.0]])
        model = ClusterPowerModel(GOOGLE_LIKE, 10)
        expected_busy = model.energy_mwh(0.5, 3600.0)
        expected_idle = model.energy_mwh(0.0, 3600.0)
        energy = result.energy_mwh(GOOGLE_LIKE)
        assert energy[0, 0] == pytest.approx(expected_busy)
        assert energy[0, 1] == pytest.approx(expected_idle)

    def test_fully_elastic_idle_is_free(self):
        result = make_result([[0.0, 0.0]], [[60.0, 60.0]])
        assert result.total_energy_mwh(FULLY_ELASTIC) == 0.0
        assert result.total_cost(FULLY_ELASTIC) == 0.0

    def test_inelastic_cost_load_independent(self):
        idle = make_result([[0.0, 0.0]], [[60.0, 60.0]])
        busy = make_result([[1000.0, 1000.0]], [[60.0, 60.0]])
        params = NO_POWER_MANAGEMENT
        # 95% idle power: cost barely moves with load.
        ratio = busy.total_cost(params) / idle.total_cost(params)
        assert 1.0 <= ratio < 1.1

    def test_cost_is_energy_times_price(self):
        result = make_result([[500.0]], [[80.0]], capacities=[1000.0], servers=[10.0])
        energy = result.energy_mwh(GOOGLE_LIKE)[0, 0]
        assert result.total_cost(GOOGLE_LIKE) == pytest.approx(energy * 80.0)

    def test_savings_vs(self):
        base = make_result([[500.0]], [[100.0]])
        cheap = make_result([[500.0]], [[50.0]])
        assert cheap.savings_vs(base, GOOGLE_LIKE) == pytest.approx(0.5)
        assert cheap.normalized_cost(base, GOOGLE_LIKE) == pytest.approx(0.5)

    def test_utilization_clipped(self):
        result = make_result([[5000.0]], [[60.0]], capacities=[1000.0])
        assert result.utilization()[0, 0] == 1.0

    def test_percentiles(self):
        loads = np.tile(np.arange(100.0)[:, None], (1, 1))
        result = make_result(loads, np.full((100, 1), 60.0))
        # "lower" order statistic: the observed sample at index
        # floor(0.95 * 99) = 94, the billing convention.
        assert result.percentiles_95()[0] == pytest.approx(94.0)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            make_result([[1.0, 2.0]], [[1.0]])


class TestCostsComputedOnce:
    """Each (result, energy model) is costed once; the floats are the
    formula's, byte for byte, however often and in whatever order they
    are asked for."""

    @staticmethod
    def formula_cost(result, params):
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.where(result.capacities > 0, result.loads / result.capacities, 0.0)
        u = np.clip(u, 0.0, 1.0)
        p_idle, p_peak = params.idle_power_watts, params.peak_power_watts
        shape = 2.0 * u - np.power(u, params.exponent)
        watts = result.server_counts[None, :] * (
            p_idle + (params.pue - 1.0) * p_peak + (p_peak - p_idle) * shape
        ) + params.correction_watts
        energy = watts * result.step_seconds / (1e6 * 3600.0)
        return u, np.sum(energy * result.paid_prices, axis=0)

    def test_costs_are_the_formula_bytes_and_read_only(self):
        rng = np.random.default_rng(4)
        loads = rng.random((50, 3)) * 1200.0
        run = make_result(loads, rng.random((50, 3)) * 90.0, capacities=[1000.0, 0.0, 800.0])
        base = make_result(loads[::-1].copy(), rng.random((50, 3)) * 90.0)
        for params in (GOOGLE_LIKE, FULLY_ELASTIC, NO_POWER_MANAGEMENT, GOOGLE_LIKE):
            u, by_cluster = self.formula_cost(run, params)
            _, base_by_cluster = self.formula_cost(base, params)
            expected_savings = 1.0 - float(by_cluster.sum()) / float(base_by_cluster.sum())
            for _ in range(2):
                assert run.utilization().tobytes() == u.tobytes()
                assert run.cost_by_cluster(params).tobytes() == by_cluster.tobytes()
                assert run.total_cost(params) == float(by_cluster.sum())
                assert run.savings_vs(base, params) == expected_savings
        assert run.utilization() is run.utilization()
        assert run.cost_by_cluster(GOOGLE_LIKE) is run.cost_by_cluster(GOOGLE_LIKE)
        for array in (run.utilization(), run.cost_by_cluster(GOOGLE_LIKE)):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_savings_keep_the_positive_baseline_guard(self):
        run = make_result([[10.0]], [[50.0]])
        free = make_result([[10.0]], [[0.0]])
        with pytest.raises(ConfigurationError, match="positive"):
            run.savings_vs(free, GOOGLE_LIKE)
