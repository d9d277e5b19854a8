"""Tests for repro.traffic.trace and repro.traffic.synthetic."""

from datetime import datetime

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.markets.calendar import HourlyCalendar
from repro.traffic.synthetic import TraceConfig, make_trace, make_turn_of_year_trace
from repro.traffic.trace import HourOfWeekWorkload, TrafficTrace


def tiny_trace(n_steps=288 * 8, step=300):
    start = datetime(2008, 12, 15)  # a Monday
    rng = np.random.default_rng(0)
    demand = rng.random((n_steps, 3)) + 0.5
    return TrafficTrace(start, step, ("MA", "NY", "CA"), demand)


class TestTrafficTrace:
    def test_validation_shapes(self):
        with pytest.raises(ConfigurationError):
            TrafficTrace(datetime(2008, 1, 1), 300, ("MA",), np.ones((5, 2)))
        with pytest.raises(ConfigurationError):
            TrafficTrace(datetime(2008, 1, 1), 300, ("MA",), np.ones(5))
        with pytest.raises(ConfigurationError):
            TrafficTrace(datetime(2008, 1, 1), 300, ("MA",), -np.ones((5, 1)))

    def test_demand_read_only(self):
        trace = tiny_trace()
        with pytest.raises(ValueError):
            trace.demand[0, 0] = 5.0

    def test_totals(self):
        trace = tiny_trace()
        assert np.allclose(trace.total_us(), trace.demand.sum(axis=1))
        assert trace.peak_us == trace.total_us().max()

    def test_global_includes_non_us(self):
        base = tiny_trace(n_steps=10)
        with_non_us = TrafficTrace(
            base.start,
            300,
            base.state_codes,
            base.demand,
            non_us=np.full(10, 7.0),
        )
        assert np.allclose(with_non_us.total_global(), with_non_us.total_us() + 7.0)

    def test_resample_hourly(self):
        trace = tiny_trace(n_steps=24)  # two hours of 5-min samples
        hourly = trace.resample_hourly()
        assert hourly.n_steps == 2
        assert hourly.step_seconds == 3600
        expected = trace.demand[:12].mean(axis=0)
        assert np.allclose(hourly.demand[0], expected)

    def test_resample_noop_for_hourly(self):
        trace = tiny_trace(n_steps=48, step=3600)
        assert trace.resample_hourly() is trace

    def test_hour_of_week_average_shape(self):
        trace = tiny_trace(n_steps=288 * 8)  # 8 days covers the week
        table = trace.hour_of_week_average()
        assert table.shape == (168, 3)
        assert np.all(table > 0)

    def test_hour_of_week_too_short(self):
        trace = tiny_trace(n_steps=288)  # one day only
        with pytest.raises(ConfigurationError):
            trace.hour_of_week_average()


class TestHourOfWeekWorkload:
    def test_expand_is_periodic(self):
        trace = tiny_trace()
        workload = HourOfWeekWorkload.from_trace(trace)
        calendar = HourlyCalendar.for_days(datetime(2008, 12, 15), 21)
        expanded = workload.expand(calendar)
        assert expanded.n_steps == 21 * 24
        # Exactly periodic with a one-week period.
        assert np.allclose(expanded.demand[:168], expanded.demand[168:336])

    def test_expand_aligns_hour_of_week(self):
        trace = tiny_trace()
        workload = HourOfWeekWorkload.from_trace(trace)
        # Start Wednesday 06:00: first row must be hour-of-week 54.
        calendar = HourlyCalendar(datetime(2008, 12, 17, 6), 24)
        expanded = workload.expand(calendar)
        assert np.allclose(expanded.demand[0], workload.table[2 * 24 + 6])

    def test_table_validation(self):
        with pytest.raises(ConfigurationError):
            HourOfWeekWorkload(("MA",), np.ones((100, 1)))
        with pytest.raises(ConfigurationError):
            HourOfWeekWorkload(("MA",), -np.ones((168, 1)))


class TestSyntheticTrace:
    def test_paper_shape(self):
        trace = make_turn_of_year_trace()
        assert trace.step_seconds == 300
        assert trace.duration_hours > 24 * 24  # "24 days and some hours"
        assert trace.n_states == 49
        assert trace.non_us is not None

    def test_peaks_near_paper_values(self):
        trace = make_turn_of_year_trace()
        assert trace.peak_us == pytest.approx(1.25e6, rel=0.25)
        assert trace.peak_global > 1.6e6

    def test_deterministic(self):
        a = make_turn_of_year_trace(seed=5)
        b = make_turn_of_year_trace(seed=5)
        assert np.array_equal(a.demand, b.demand)

    def test_seed_changes_trace(self):
        a = make_turn_of_year_trace(seed=5)
        b = make_turn_of_year_trace(seed=6)
        assert not np.array_equal(a.demand, b.demand)

    def test_custom_config(self):
        trace = make_trace(TraceConfig(n_steps=100, include_non_us=False))
        assert trace.n_steps == 100
        assert trace.non_us is None

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(n_steps=0)

    def test_step_longer_than_a_week_is_refused(self):
        with pytest.raises(ConfigurationError, match="at most one week"):
            TraceConfig(n_steps=3, step_seconds=8 * 86400)

    def test_one_week_step_still_generates(self):
        trace = make_trace(TraceConfig(n_steps=3, step_seconds=7 * 86400))
        assert trace.demand.shape == (3, 49)
