"""Tests for repro.markets.generator (structure and determinism).

Statistical calibration against the paper's published numbers lives in
test_calibration.py; these tests cover API behaviour.
"""

from datetime import datetime

import numpy as np
import pytest

from repro.errors import ConfigurationError, UnknownHubError
from repro.markets.generator import MarketConfig, generate_market
from repro.markets.model import PRICE_FLOOR, deterministic_level, fuel_multiplier


@pytest.fixture(scope="module")
def dataset():
    return generate_market(MarketConfig(start=datetime(2008, 1, 1), months=3, seed=5))


class TestConfig:
    def test_duplicate_hubs_rejected(self):
        with pytest.raises(ConfigurationError):
            MarketConfig(hub_codes=("NYC", "NYC"))

    def test_empty_hubs_rejected(self):
        with pytest.raises(ConfigurationError):
            MarketConfig(hub_codes=())


def test_levels_equal_deterministic_level_bitwise(monkeypatch):
    """Shared calendar factors leave every hub's level bit-identical."""
    import repro.markets.generator as generator

    levels = []

    def record(hub, fuel, *factors):
        level = level_of(hub, fuel, *factors)
        levels.append((hub, level))
        return level

    level_of = generator._level
    monkeypatch.setattr(generator, "_level", record)
    cfg = MarketConfig(start=datetime(2008, 11, 1), months=2, seed=7)
    dataset = generate_market(cfg)
    fuel = fuel_multiplier(dataset.calendar, np.random.default_rng(cfg.seed), cfg.model)
    assert [hub.code for hub, _ in levels] == list(cfg.hub_codes)
    assert len({hub.utc_offset_hours for hub, _ in levels}) > 1
    for hub, level in levels:
        expected = deterministic_level(dataset.calendar, hub, fuel, cfg.model)
        np.testing.assert_array_equal(level, expected, err_msg=hub.code)


class TestDataset:
    def test_shapes(self, dataset):
        n_hours = dataset.calendar.n_hours
        assert dataset.price_matrix.shape == (n_hours, 29)
        assert dataset.day_ahead_matrix.shape == (n_hours, 29)
        assert dataset.price_matrix.flags.c_contiguous
        assert dataset.day_ahead_matrix.flags.c_contiguous

    def test_matrices_read_only(self, dataset):
        with pytest.raises(ValueError):
            dataset.price_matrix[0, 0] = 1.0

    def test_price_floor_respected(self, dataset):
        assert dataset.price_matrix.min() >= PRICE_FLOOR

    def test_hub_column_round_trip(self, dataset):
        for j, code in enumerate(dataset.hub_codes):
            assert dataset.hub_column(code) == j

    def test_unknown_hub_raises(self, dataset):
        with pytest.raises(UnknownHubError):
            dataset.real_time("NOPE")

    def test_real_time_series_aligned(self, dataset):
        series = dataset.real_time("NYC")
        assert series.start == dataset.calendar.start
        assert len(series) == dataset.calendar.n_hours
        j = dataset.hub_column("NYC")
        assert np.array_equal(series.values, dataset.price_matrix[:, j])

    def test_determinism(self):
        config = MarketConfig(start=datetime(2008, 1, 1), months=2, seed=99)
        a = generate_market(config)
        b = generate_market(config)
        assert np.array_equal(a.price_matrix, b.price_matrix)
        assert np.array_equal(a.day_ahead_matrix, b.day_ahead_matrix)

    def test_seeds_differ(self):
        a = generate_market(MarketConfig(months=2, seed=1))
        b = generate_market(MarketConfig(months=2, seed=2))
        assert not np.array_equal(a.price_matrix, b.price_matrix)

    def test_cheapest_hub_is_argmin_of_means(self, dataset):
        means = dataset.mean_prices()
        cheapest = dataset.cheapest_hub()
        assert means[dataset.hub_column(cheapest)] == means.min()


class TestLaggedPrices:
    def test_zero_delay_identity(self, dataset):
        assert dataset.lagged_price_matrix(0) is dataset.price_matrix

    def test_one_hour_shift(self, dataset):
        lagged = dataset.lagged_price_matrix(1)
        assert np.array_equal(lagged[1:], dataset.price_matrix[:-1])
        assert np.array_equal(lagged[0], dataset.price_matrix[0])

    def test_negative_delay_rejected(self, dataset):
        with pytest.raises(ConfigurationError):
            dataset.lagged_price_matrix(-1)


class TestFiveMinute:
    def test_shape_and_step(self, dataset):
        series = dataset.five_minute("NYC", 0, 24)
        assert len(series) == 24 * 12
        assert series.step_seconds == 300

    def test_tracks_hourly_mean(self, dataset):
        series = dataset.five_minute("NYC", 100, 48)
        hourly = dataset.real_time("NYC").values[100:148]
        block_means = series.values.reshape(-1, 12).mean(axis=1)
        # Noise is zero-mean: hourly block means track the hourly feed.
        assert np.corrcoef(block_means, hourly)[0, 1] > 0.8

    def test_more_volatile_than_hourly(self, dataset):
        series = dataset.five_minute("NYC", 0, 24 * 28)
        hourly = dataset.real_time("NYC").slice(0, 24 * 28)
        assert series.values.std() > hourly.values.std()

    def test_deterministic(self, dataset):
        a = dataset.five_minute("CHI", 50, 24)
        b = dataset.five_minute("CHI", 50, 24)
        assert np.array_equal(a.values, b.values)

    def test_window_validation(self, dataset):
        with pytest.raises(ConfigurationError):
            dataset.five_minute("CHI", -1, 24)
        with pytest.raises(ConfigurationError):
            dataset.five_minute("CHI", 0, 10**9)


class TestDayAhead:
    def test_premium_over_real_time(self, dataset):
        # §3.1: RT clears lower on average than day-ahead.
        rt_mean = dataset.price_matrix.mean()
        da_mean = dataset.day_ahead_matrix.mean()
        assert da_mean > rt_mean

    def test_smoother_at_short_windows(self, dataset):
        rt = dataset.real_time("NYC")
        da = dataset.day_ahead("NYC")
        assert da.windowed_std(1) < rt.windowed_std(1)
