"""Tests for the content-addressed on-disk market-dataset cache."""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pytest

from repro import artifacts, scenarios
from repro.errors import ConfigurationError
from repro.markets import providers
from repro.markets.providers import SYNTHETIC, DatasetKey, materialise_dataset, preset
from repro.scenarios.spec import MarketSpec

MARKET = MarketSpec(start=datetime(2008, 11, 1), months=2, seed=7)


@pytest.fixture
def store(tmp_path):
    store = artifacts.configure(tmp_path / "store")
    scenarios.clear_caches()
    yield store
    artifacts.reset()
    scenarios.clear_caches()


def _count_generates(monkeypatch):
    calls = {"n": 0}
    real = providers.generate_market

    def counting(config=None):
        calls["n"] += 1
        return real(config)

    monkeypatch.setattr(providers, "generate_market", counting)
    return calls


class TestDatasetCache:
    def test_materialisation_publishes_a_dataset_artifact(self, store):
        materialise_dataset(MARKET, SYNTHETIC)
        key = DatasetKey(market=MARKET, provider=SYNTHETIC)
        assert store.has(artifacts.KIND_DATASET, key)

    def test_second_materialisation_reads_instead_of_rebuilding(self, store, monkeypatch):
        first = materialise_dataset(MARKET, SYNTHETIC)
        calls = _count_generates(monkeypatch)
        second = materialise_dataset(MARKET, SYNTHETIC)
        assert calls["n"] == 0
        assert np.array_equal(first.price_matrix, second.price_matrix)
        assert np.array_equal(first.day_ahead_matrix, second.day_ahead_matrix)

    def test_decoded_dataset_reproduces_derived_views(self, store):
        built = materialise_dataset(MARKET, SYNTHETIC)
        payload = store.load(
            artifacts.KIND_DATASET, DatasetKey(market=MARKET, provider=SYNTHETIC)
        )
        decoded = artifacts.decode_market_dataset(payload)
        assert decoded.config == built.config
        assert decoded.hub_codes == built.hub_codes
        assert decoded.calendar.n_hours == built.calendar.n_hours
        code = built.hub_codes[0]
        a = built.five_minute(code, 0, 24).values
        b = decoded.five_minute(code, 0, 24).values
        assert np.array_equal(a, b), "seeded five-minute series must round-trip exactly"
        assert np.array_equal(
            built.lagged_price_matrix(1), decoded.lagged_price_matrix(1)
        )

    def test_perturbed_stack_reuses_materialised_base(self, store, monkeypatch):
        materialise_dataset(MARKET, SYNTHETIC)
        calls = _count_generates(monkeypatch)
        spiky = preset("spiky-markets").spec
        materialise_dataset(MARKET, spiky)
        assert calls["n"] == 0, "perturbed provider must hit its base's disk cache"
        # ... and the perturbed result itself is now cached too.
        assert store.has(artifacts.KIND_DATASET, DatasetKey(market=MARKET, provider=spiky))

    def test_perturbed_dataset_identical_with_and_without_cache(self, store):
        spiky = preset("spiky-markets").spec
        cached = materialise_dataset(MARKET, spiky)
        artifacts.configure(None)
        direct = providers.build_provider(spiky).dataset(MARKET)
        assert np.array_equal(cached.price_matrix, direct.price_matrix)
        assert np.array_equal(cached.day_ahead_matrix, direct.day_ahead_matrix)

    def test_refresh_mode_rebuilds_instead_of_reading(self, store, monkeypatch):
        materialise_dataset(MARKET, SYNTHETIC)
        calls = _count_generates(monkeypatch)
        artifacts.set_refresh(True)
        try:
            materialise_dataset(MARKET, SYNTHETIC)
        finally:
            artifacts.set_refresh(False)
        assert calls["n"] == 1, "refresh mode must bypass the dataset cache read"

    def test_no_store_means_no_cache_files(self, tmp_path):
        artifacts.configure(None)
        try:
            materialise_dataset(MARKET, SYNTHETIC)
            assert not (tmp_path / "store").exists()
        finally:
            artifacts.reset()

    def test_corrupt_record_falls_back_to_rebuilding(self, store, monkeypatch):
        materialise_dataset(MARKET, SYNTHETIC)
        key = DatasetKey(market=MARKET, provider=SYNTHETIC)
        path = store.path_for(artifacts.KIND_DATASET, key)
        record = path.read_bytes().replace(b'"real_time"', b'"real_time_gone"')
        path.write_bytes(record)
        calls = _count_generates(monkeypatch)
        rebuilt = materialise_dataset(MARKET, SYNTHETIC)
        assert calls["n"] == 1
        assert rebuilt.price_matrix.shape[1] == len(rebuilt.hub_codes)

    def test_non_default_model_configs_opt_out(self):
        from repro.markets.generator import MarketConfig, generate_market
        from repro.markets.model import PriceModelConfig

        custom = generate_market(
            MarketConfig(months=1, model=PriceModelConfig(diurnal_amplitude=0.5))
        )
        assert artifacts.encode_market_dataset(custom) is None
        default = generate_market(MarketConfig(months=1))
        assert artifacts.encode_market_dataset(default) is not None


class TestRunnerIntegration:
    def test_worker_cold_cache_loads_dataset_from_disk(self, store, monkeypatch):
        """A cold in-process runner (a new worker) reads the disk cache."""
        scenarios.dataset(MARKET)
        scenarios.clear_caches()  # simulate a fresh worker process
        calls = _count_generates(monkeypatch)
        scenarios.dataset(MARKET)
        assert calls["n"] == 0


def _with_nan(dataset, hour: int, column: int, *, day_ahead: bool = False):
    """A copy of ``dataset`` with one NaN price."""
    real_time = dataset.price_matrix.copy()
    ahead = dataset.day_ahead_matrix.copy()
    (ahead if day_ahead else real_time)[hour, column] = np.nan
    return type(dataset)(dataset.config, dataset.calendar, dataset.hubs, real_time, ahead)


class TestNanPrices:
    """A NaN price is refused where a dataset enters, naming hub and hour."""

    @pytest.mark.parametrize("day_ahead", (False, True))
    def test_built_dataset_with_nan_is_refused(self, monkeypatch, day_ahead):
        clean = providers.build_provider(SYNTHETIC).dataset(MARKET)
        broken = _with_nan(clean, 30, 2, day_ahead=day_ahead)

        class Broken:
            def dataset(self, market):
                return broken

        monkeypatch.setattr(providers, "build_provider", lambda spec: Broken())
        feed = "day-ahead" if day_ahead else "real-time"
        hub = clean.hub_codes[2]
        message = f"{feed} price of hub {hub} is NaN at hour 30"
        with pytest.raises(ConfigurationError, match=message):
            materialise_dataset(MARKET, SYNTHETIC)

    def test_stored_dataset_with_nan_is_refused(self, store):
        clean = materialise_dataset(MARKET, SYNTHETIC)
        key = DatasetKey(market=MARKET, provider=SYNTHETIC)
        encoded = artifacts.encode_market_dataset(_with_nan(clean, 5, 0))
        store.save(artifacts.KIND_DATASET, key, encoded)
        with pytest.raises(ConfigurationError, match="is NaN at hour 5 "):
            materialise_dataset(MARKET, SYNTHETIC)

    def test_inf_prices_stay_legal(self, monkeypatch):
        clean = providers.build_provider(SYNTHETIC).dataset(MARKET)
        real_time = clean.price_matrix.copy()
        real_time[3, 1] = np.inf
        spiked = type(clean)(clean.config, clean.calendar, clean.hubs, real_time, real_time)

        class Spiked:
            def dataset(self, market):
                return spiked

        monkeypatch.setattr(providers, "build_provider", lambda spec: Spiked())
        assert materialise_dataset(MARKET, SYNTHETIC) is spiked
