"""Tests for repro.markets.model (price process components)."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markets.calendar import HourlyCalendar
from repro.markets.hubs import get_hub
from repro.markets.model import (
    PriceModelConfig,
    _add_decaying,
    ar1_filter,
    deterministic_level,
    diurnal_multiplier,
    fuel_multiplier,
    seasonal_multiplier,
    spike_matrix,
    spike_series,
    volatility_matrix,
    weekly_multiplier,
)


@pytest.fixture(scope="module")
def calendar():
    return HourlyCalendar.for_months(datetime(2006, 1, 1), 39)


@pytest.fixture(scope="module")
def year_calendar():
    return HourlyCalendar.for_months(datetime(2007, 1, 1), 12)


class TestAr1Filter:
    def test_marginal_sigma(self):
        rng = np.random.default_rng(0)
        out = ar1_filter(rng.standard_normal(200_000), phi=0.8, sigma=5.0)
        assert out.std() == pytest.approx(5.0, rel=0.05)

    def test_autocorrelation_matches_phi(self):
        rng = np.random.default_rng(1)
        out = ar1_filter(rng.standard_normal(200_000), phi=0.7, sigma=1.0)
        ac = np.corrcoef(out[:-1], out[1:])[0, 1]
        assert ac == pytest.approx(0.7, abs=0.02)

    def test_phi_zero_is_white(self):
        rng = np.random.default_rng(2)
        shocks = rng.standard_normal(1000)
        out = ar1_filter(shocks.copy(), phi=0.0, sigma=2.0)
        assert np.allclose(out, shocks * 2.0)

    def test_invalid_phi(self):
        with pytest.raises(ValueError):
            ar1_filter(np.zeros(10), phi=1.0, sigma=1.0)

    def test_empty_input(self):
        assert ar1_filter(np.array([]), phi=0.5, sigma=1.0).size == 0

    @pytest.mark.parametrize("shape", [(10,), (3, 10)])
    def test_invalid_phi_and_sigma_for_any_rank(self, shape):
        with pytest.raises(ValueError, match="phi"):
            ar1_filter(np.zeros(shape), phi=-0.1, sigma=1.0)
        with pytest.raises(ValueError, match="sigma"):
            ar1_filter(np.zeros(shape), phi=0.5, sigma=-1.0)

    @pytest.mark.parametrize("shape", [(1,), (4, 1)])
    def test_single_sample_is_scaled_shock(self, shape):
        shocks = np.random.default_rng(3).standard_normal(shape)
        out = ar1_filter(shocks, phi=0.9, sigma=2.5)
        assert out.shape == shape
        assert np.array_equal(out, shocks * 2.5)

    @given(
        n_rows=st.integers(1, 60),
        n=st.integers(1, 400),
        phi=st.floats(0.0, 0.999),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_rows_equal_row_by_row_loop(self, n_rows, n, phi, seed):
        shocks = np.random.default_rng(seed).standard_normal((n_rows, n))
        batched = ar1_filter(shocks, phi, 0.06)
        looped = np.stack([ar1_filter(row, phi, 0.06) for row in shocks])
        assert batched.tobytes() == looped.tobytes()


class TestFuelTrend:
    def test_hump_peaks_mid_2008(self, calendar):
        rng = np.random.default_rng(3)
        fuel = fuel_multiplier(calendar, rng)
        peak_index = int(np.argmax(fuel))
        peak_date = calendar.datetime_at(peak_index)
        assert datetime(2008, 2, 1) < peak_date < datetime(2008, 11, 1)

    def test_2009_below_2007(self, calendar):
        # The downturn: early-2009 levels sit below 2007 levels.
        rng = np.random.default_rng(4)
        fuel = fuel_multiplier(calendar, rng)
        idx_2007 = calendar.index_of(datetime(2007, 6, 1))
        idx_2009 = calendar.index_of(datetime(2009, 2, 1))
        assert fuel[idx_2009] < fuel[idx_2007]

    def test_always_positive(self, calendar):
        rng = np.random.default_rng(5)
        assert np.all(fuel_multiplier(calendar, rng) > 0)


class TestShapes:
    def test_seasonal_mean_near_one(self, year_calendar):
        seasonal = seasonal_multiplier(year_calendar)
        assert seasonal.mean() == pytest.approx(1.0, abs=0.03)
        assert seasonal.max() < 1.3

    def test_seasonal_summer_peak(self, year_calendar):
        seasonal = seasonal_multiplier(year_calendar)
        months = year_calendar.month
        july = seasonal[months == 7].mean()
        april = seasonal[months == 4].mean()
        assert july > april

    def test_diurnal_peaks_at_configured_local_hour(self, year_calendar):
        hub = get_hub("NYC")
        cfg = PriceModelConfig()
        diurnal = diurnal_multiplier(year_calendar, hub, cfg)
        local = year_calendar.local_hour_of_day(hub.utc_offset_hours)
        by_hour = [diurnal[local == h].mean() for h in range(24)]
        assert int(np.argmax(by_hour)) == int(cfg.diurnal_peak_local_hour)

    def test_diurnal_time_zone_shift(self, year_calendar):
        # Same local curve, shifted in absolute time by the UTC offset
        # difference: the Fig. 12 mechanism.
        east = diurnal_multiplier(year_calendar, get_hub("NYC"))
        west = diurnal_multiplier(year_calendar, get_hub("NP15"))
        shift = get_hub("NYC").utc_offset_hours - get_hub("NP15").utc_offset_hours
        assert shift == 3
        assert np.allclose(east[:-shift], west[shift:], atol=1e-12)

    def test_weekend_discount(self, year_calendar):
        weekly = weekly_multiplier(year_calendar)
        weekend = year_calendar.day_of_week >= 5
        assert np.all(weekly[weekend] < 1.0)
        assert np.all(weekly[~weekend] == 1.0)

    def test_deterministic_level_scales_with_mean(self, year_calendar):
        rng = np.random.default_rng(6)
        fuel = fuel_multiplier(year_calendar, rng)
        chi = deterministic_level(year_calendar, get_hub("CHI"), fuel)
        nyc = deterministic_level(year_calendar, get_hub("NYC"), fuel)
        assert nyc.mean() > chi.mean()
        assert np.all(chi > 0)


class TestVolatility:
    def test_unit_second_moment(self, calendar):
        rng = np.random.default_rng(7)
        vol = volatility_matrix(calendar, [get_hub("CHI"), get_hub("NYC")], rng)
        assert np.mean(vol**2, axis=0) == pytest.approx(np.ones(2), rel=0.35)

    def test_always_positive(self, calendar):
        rng = np.random.default_rng(8)
        vol = volatility_matrix(calendar, [get_hub("NP15")], rng)
        assert np.all(vol > 0)

    def test_same_rto_volatility_comoves(self, calendar):
        rng = np.random.default_rng(9)
        hubs = [get_hub("NP15"), get_hub("SP15"), get_hub("NYC")]
        vol = volatility_matrix(calendar, hubs, rng)
        log_vol = np.log(vol)
        rho_same = np.corrcoef(log_vol[:, 0], log_vol[:, 1])[0, 1]
        rho_cross = np.corrcoef(log_vol[:, 0], log_vol[:, 2])[0, 1]
        assert rho_same > 0.5
        assert rho_same > rho_cross


class TestSpikes:
    def test_events_occur_and_decay(self, calendar):
        rng = np.random.default_rng(10)
        spikes = spike_series(calendar, get_hub("NYC"), rng)
        assert spikes.max() > 20.0  # some positive events over 39 months

    def test_mostly_zero(self, calendar):
        rng = np.random.default_rng(11)
        spikes = spike_series(calendar, get_hub("CHI"), rng)
        assert np.mean(spikes == 0.0) > 0.5

    def test_capped_magnitude(self, calendar):
        cfg = PriceModelConfig()
        rng = np.random.default_rng(12)
        spikes = spike_matrix(calendar, [get_hub("NP15"), get_hub("ERCOT-H")], rng, cfg)
        # A single step may stack events, but the bulk stays under the
        # per-event cap plus a small stacking allowance.
        assert np.percentile(spikes[spikes > 0], 99.9) <= cfg.spike_max * 2.5

    def test_regional_events_hit_whole_rto(self, calendar):
        cfg = PriceModelConfig(spike_regional_share=1.0, spike_rate_multiplier=20.0)
        rng = np.random.default_rng(13)
        hubs = [get_hub("NP15"), get_hub("SP15")]
        spikes = spike_matrix(calendar, hubs, rng, cfg)
        active = spikes > 1.0
        both = np.mean(active[:, 0] & active[:, 1])
        either = np.mean(active[:, 0] | active[:, 1])
        assert both / either > 0.6  # co-occurrence under all-regional events

    def test_negative_dips_exist(self, calendar):
        cfg = PriceModelConfig(negative_rate_per_kh=5.0)
        rng = np.random.default_rng(14)
        spikes = spike_series(calendar, get_hub("CHI"), rng, cfg)
        assert spikes.min() < 0.0


def _add_decaying_scalar(out, start, magnitude, decay):
    """Reference: the per-hour loop that :func:`_add_decaying` replaced."""
    n = out.size
    value = magnitude
    t = start
    while abs(value) > 1.0 and t < n:
        out[t] += value
        value *= decay
        t += 1


_EVENTS = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 45),
        st.floats(-1e4, 1e4, allow_nan=False) | st.sampled_from([1.0, -1.0, 0.5]),
    ),
    max_size=40,
)
_DECAYS = st.sampled_from([0.0, 0.45, -0.45, 0.9, 1.0, -1.0, 1.1]) | st.floats(-1.2, 1.2)


class TestDecayingExcursions:
    """The vectorised decay is bitwise the scalar left fold, event by event."""

    @settings(max_examples=200, deadline=None)
    @given(events=_EVENTS, decay=_DECAYS)
    def test_matches_scalar_loop(self, events, decay):
        expected = np.zeros((3, 40))
        for row, start, magnitude in events:
            _add_decaying_scalar(expected[row], start, magnitude, decay)
        got = np.zeros((3, 40))
        _add_decaying(got, events, decay)
        np.testing.assert_array_equal(got, expected)

    def test_overlapping_events_sum_in_event_order(self):
        # Float addition is not associative: three excursions landing on
        # one hour must be added in event order to match the scalar loop.
        events = [(0, 0, 1e16), (0, 0, -1e16), (0, 0, 3.0)]
        expected = np.zeros((1, 4))
        for row, start, magnitude in events:
            _add_decaying_scalar(expected[row], start, magnitude, 0.45)
        got = np.zeros((1, 4))
        _add_decaying(got, events, 0.45)
        assert got[0, 0] == expected[0, 0] == 3.0  # reversed, (3 - 1e16) + 1e16 is 4
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("decay", [0.45, 1.0])
    def test_blocked_batches_match_scalar_loop(self, decay, monkeypatch):
        # Excursions are materialised in bounded blocks; a block edge
        # must not change the result.
        monkeypatch.setattr("repro.markets.model._DECAY_BLOCK_TERMS", 64)
        rng = np.random.default_rng(3)
        events = [
            (int(row), int(start), float(magnitude))
            for row, start, magnitude in zip(
                rng.integers(0, 2, 50), rng.integers(0, 40, 50), rng.normal(0.0, 300.0, 50)
            )
        ]
        expected = np.zeros((2, 40))
        for row, start, magnitude in events:
            _add_decaying_scalar(expected[row], start, magnitude, decay)
        got = np.zeros((2, 40))
        _add_decaying(got, events, decay)
        np.testing.assert_array_equal(got, expected)

    def test_default_spike_matrix_matches_scalar_loop(self, calendar, monkeypatch):
        # Replay spike_matrix's event draws through the reference loop.
        recorded = []

        def record(out, events, decay):
            recorded.append((out.shape, list(events), decay))
            _add_decaying(out, events, decay)

        monkeypatch.setattr("repro.markets.model._add_decaying", record)
        hubs = [get_hub("NP15"), get_hub("SP15"), get_hub("CHI")]
        spikes = spike_matrix(calendar, hubs, np.random.default_rng(21))
        ((shape, events, decay),) = recorded
        expected = np.zeros(shape)
        for row, start, magnitude in events:
            _add_decaying_scalar(expected[row], start, magnitude, decay)
        assert len(events) > 100
        np.testing.assert_array_equal(spikes, expected.T)
