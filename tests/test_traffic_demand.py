"""Tests for repro.traffic.demand."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.markets.model import ar1_filter
from repro.traffic.demand import DemandModel, DemandModelConfig


@pytest.fixture(scope="module")
def model():
    return DemandModel()


def hour_axis(days=7, step_minutes=5):
    steps = days * 24 * 60 // step_minutes
    hours = (np.arange(steps) * step_minutes / 60.0) % 24.0
    dow = ((np.arange(steps) * step_minutes / 60.0) // 24.0).astype(int) % 7
    return hours, dow


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DemandModelConfig(us_peak_hits=0.0)
        with pytest.raises(ConfigurationError):
            DemandModelConfig(diurnal_swing=0.5)
        with pytest.raises(ConfigurationError):
            DemandModelConfig(us_share_of_global=0.0)


class TestShares:
    def test_shares_sum_to_one(self, model):
        assert model.shares.sum() == pytest.approx(1.0)

    def test_california_largest(self, model):
        shares = dict(zip(model.state_codes, model.shares))
        assert max(shares, key=shares.get) == "CA"

    def test_49_contiguous_states(self, model):
        assert len(model.state_codes) == 49


class TestDiurnal:
    def test_memo_is_keyed_on_config_and_exact_grid(self):
        from repro.traffic import demand

        hours, _ = hour_axis(days=2)
        model = DemandModel()
        first = model.diurnal_factor(hours)
        assert not first.flags.writeable
        assert DemandModel().diurnal_factor(hours.copy()) is first
        assert np.array_equal(first, model._diurnal_factor(hours))
        # A shorter grid renormalises over its own min/max, and another
        # config shapes another curve: neither may hit the memo.
        for other in (
            model.diurnal_factor(hours[:100]),
            DemandModel(DemandModelConfig(diurnal_swing=2.0)).diurnal_factor(hours),
            model.diurnal_factor(hours.astype(np.float32)),
        ):
            assert other is not first

    def test_memo_stays_under_its_byte_bound(self, monkeypatch):
        from repro.traffic import demand

        model = DemandModel()
        curve_bytes = model.diurnal_factor(np.arange(100, dtype=float)).nbytes
        monkeypatch.setattr(demand._DIURNAL_MEMO, "limit", 3 * curve_bytes)
        grids = [np.arange(100, dtype=float) + k / 8 for k in range(8)]
        for grid in grids:
            newest = model.diurnal_factor(grid)
        assert len(demand._DIURNAL_MEMO) == 3
        assert model.diurnal_factor(grids[-1]) is newest
        # A curve above the bound on its own is still kept, alone.
        monkeypatch.setattr(demand._DIURNAL_MEMO, "limit", curve_bytes // 2)
        model.diurnal_factor(grids[0])
        assert len(demand._DIURNAL_MEMO) == 1

    def test_shape_and_range(self, model):
        hours, _ = hour_axis(days=2)
        factors = model.diurnal_factor(hours)
        assert factors.shape == (len(hours), 49)
        assert factors.max() == pytest.approx(1.0, abs=1e-9)
        assert factors.min() == pytest.approx(1.0 / model.config.diurnal_swing, abs=0.01)

    def test_evening_peak_local_time(self, model):
        hours, _ = hour_axis(days=1)
        factors = model.diurnal_factor(hours)
        ma = list(model.state_codes).index("MA")
        # Massachusetts is UTC-5: local 21:00 is 02:00 UTC.
        peak_step = int(np.argmax(factors[:, ma]))
        peak_utc_hour = hours[peak_step]
        assert peak_utc_hour == pytest.approx((21 + 5) % 24, abs=1.0)

    def test_time_zone_offset_between_coasts(self, model):
        hours, _ = hour_axis(days=1)
        factors = model.diurnal_factor(hours)
        ma = list(model.state_codes).index("MA")
        ca = list(model.state_codes).index("CA")
        lag = np.argmax(factors[:, ca]) - np.argmax(factors[:, ma])
        # California peaks 3 hours later in absolute time.
        assert lag * 5 / 60.0 == pytest.approx(3.0, abs=0.5)


class TestSampling:
    def test_demand_positive_and_shaped(self, model):
        hours, dow = hour_axis(days=7)
        rng = np.random.default_rng(0)
        demand = model.sample(hours, dow, rng)
        assert demand.shape == (len(hours), 49)
        assert np.all(demand > 0)
        total = demand.sum(axis=1)
        assert total.max() < 2.5 * model.config.us_peak_hits
        assert total.max() > 0.7 * model.config.us_peak_hits

    def test_weekend_lower(self):
        model = DemandModel(DemandModelConfig(noise_sigma=0.0, flash_rate_per_week=0.0))
        hours, dow = hour_axis(days=14)
        rng = np.random.default_rng(1)
        demand = model.sample(hours, dow, rng).sum(axis=1)
        weekday = demand[dow < 5].mean()
        weekend = demand[dow >= 5].mean()
        assert weekend < weekday

    def test_deterministic_given_seed(self, model):
        hours, dow = hour_axis(days=2)
        a = model.sample(hours, dow, np.random.default_rng(7))
        b = model.sample(hours, dow, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_flash_crowds_raise_peak(self):
        calm_cfg = DemandModelConfig(noise_sigma=0.0, flash_rate_per_week=0.0)
        flashy_cfg = DemandModelConfig(noise_sigma=0.0, flash_rate_per_week=20.0, flash_peak=2.0)
        hours, dow = hour_axis(days=7)
        calm = DemandModel(calm_cfg).sample(hours, dow, np.random.default_rng(3))
        flashy = DemandModel(flashy_cfg).sample(hours, dow, np.random.default_rng(3))
        assert flashy.max() > calm.max()

    def test_mismatched_axes_rejected(self, model):
        with pytest.raises(ConfigurationError):
            model.sample(np.zeros(10), np.zeros(5, dtype=int), np.random.default_rng(0))

    @given(
        n=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
        phi=st.floats(0.0, 0.999),
        sigma=st.floats(0.0, 0.3),
        step_minutes=st.sampled_from([1, 5, 60]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sample_equals_per_state_loop(self, n, seed, phi, sigma, step_minutes):
        model = DemandModel(DemandModelConfig(noise_phi=phi, noise_sigma=sigma))
        hours = (np.arange(n) * step_minutes / 60.0) % 24.0
        dow = ((np.arange(n) * step_minutes / 60.0) // 24.0).astype(int) % 7
        step_seconds = step_minutes * 60
        sampled = model.sample(hours, dow, np.random.default_rng(seed), step_seconds)
        oracle = _per_state_loop_sample(
            model, hours, dow, np.random.default_rng(seed), step_seconds
        )
        assert sampled.tobytes() == oracle.tobytes()


def _per_state_loop_sample(model, hours, dow, rng, step_seconds):
    """``DemandModel.sample`` as it was written before the batched filter:
    one shock draw, one AR(1) filter and one ``exp`` per state in turn."""
    cfg = model.config
    n = hours.size
    shape = model.diurnal_factor(hours) * model.weekly_factor(dow)[:, None]
    base = cfg.us_peak_hits * model.shares[None, :] * shape
    noise = np.empty((n, len(model.states)))
    for j in range(len(model.states)):
        log_jitter = ar1_filter(rng.standard_normal(n), cfg.noise_phi, cfg.noise_sigma)
        noise[:, j] = np.exp(log_jitter - cfg.noise_sigma**2 / 2.0)
    demand = base * noise
    model._apply_flash_crowds(demand, rng, step_seconds)
    return demand


class TestNonUS:
    def test_global_ratio(self, model):
        hours, _ = hour_axis(days=7)
        rng = np.random.default_rng(4)
        non_us = model.non_us_demand(hours, rng)
        assert non_us.shape == hours.shape
        assert np.all(non_us > 0)
        # Peak non-US traffic sized so global ~ US / us_share.
        expected_peak = model.config.us_peak_hits * (
            1 - model.config.us_share_of_global
        ) / model.config.us_share_of_global
        assert non_us.max() == pytest.approx(expected_peak, rel=0.01)

    def test_flatter_than_us(self, model):
        hours, dow = hour_axis(days=7)
        rng = np.random.default_rng(5)
        non_us = model.non_us_demand(hours, rng)
        us = model.sample(hours, dow, np.random.default_rng(5)).sum(axis=1)
        assert (non_us.min() / non_us.max()) > (us.min() / us.max())
