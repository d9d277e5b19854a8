"""Tests for repro.markets.calendar."""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.markets.calendar import (
    PAPER_MONTHS,
    PAPER_START,
    HourlyCalendar,
    month_range_hours,
)


class TestMonthRange:
    def test_one_month(self):
        assert month_range_hours(datetime(2006, 1, 1), 1) == 31 * 24

    def test_february_leap(self):
        assert month_range_hours(datetime(2008, 2, 1), 1) == 29 * 24

    def test_paper_range_is_39_months(self):
        hours = month_range_hours(PAPER_START, PAPER_MONTHS)
        # Jan 2006 - Mar 2009 inclusive: 1186 days.
        assert hours == 1186 * 24
        assert hours > 28_000  # ">28k samples each" (Fig. 8 caption)

    def test_year_wrap(self):
        assert month_range_hours(datetime(2006, 11, 1), 3) == (30 + 31 + 31) * 24

    def test_invalid_months(self):
        with pytest.raises(ConfigurationError):
            month_range_hours(PAPER_START, 0)

    # -- month-end starts roll over instead of raising -----------------------

    def test_jan_31_plus_one_month_ends_mar_1(self):
        # Feb 31 does not exist: the window runs Jan 31 .. Mar 1.
        assert month_range_hours(datetime(2006, 1, 31), 1) == 29 * 24

    def test_jan_31_plus_one_month_leap_year(self):
        # 2008 is a leap year: Jan 31 .. Mar 1 spans 30 days.
        assert month_range_hours(datetime(2008, 1, 31), 1) == 30 * 24

    def test_jan_29_lands_on_leap_day(self):
        # Feb 29 2008 exists, so no rollover happens.
        assert month_range_hours(datetime(2008, 1, 29), 1) == 31 * 24

    def test_may_31_plus_one_month_ends_jul_1(self):
        # Jun 31 does not exist: May 31 .. Jul 1 is 31 days.
        assert month_range_hours(datetime(2006, 5, 31), 1) == 31 * 24

    def test_dec_31_rollover_wraps_the_year(self):
        # Dec 31 + 2 months nominally ends Feb 31 -> rolls to Mar 1.
        assert month_range_hours(datetime(2006, 12, 31), 2) == (31 + 28 + 1) * 24

    def test_month_end_start_preserves_time_of_day(self):
        whole = month_range_hours(datetime(2006, 1, 31), 1)
        assert month_range_hours(datetime(2006, 1, 31, 6), 1) == whole

    def test_month_end_calendar_builds(self):
        cal = HourlyCalendar.for_months(datetime(2008, 1, 31), 1)
        assert len(cal) == 30 * 24


class TestHourlyCalendar:
    @pytest.fixture(scope="class")
    def calendar(self):
        return HourlyCalendar.for_months(datetime(2006, 1, 1), 3)

    def test_length(self, calendar):
        assert len(calendar) == (31 + 28 + 31) * 24

    def test_hour_of_day_cycles(self, calendar):
        hod = calendar.hour_of_day
        assert hod[0] == 0
        assert hod[23] == 23
        assert hod[24] == 0
        assert np.all((0 <= hod) & (hod < 24))

    def test_day_of_week(self, calendar):
        # 2006-01-01 was a Sunday.
        assert calendar.day_of_week[0] == 6
        assert calendar.day_of_week[24] == 0

    def test_month_index_contiguous(self, calendar):
        midx = calendar.month_index
        assert midx[0] == 0
        assert midx[-1] == 2
        assert np.all(np.diff(midx) >= 0)

    def test_hour_of_week_range(self, calendar):
        how = calendar.hour_of_week
        assert np.all((0 <= how) & (how < 168))

    def test_local_hour_shift(self, calendar):
        pacific = calendar.local_hour_of_day(-8)
        assert pacific[8] == 0  # 08:00 UTC == midnight Pacific

    def test_datetime_round_trip(self, calendar):
        when = datetime(2006, 2, 14, 13)
        index = calendar.index_of(when)
        assert calendar.datetime_at(index) == when

    def test_index_out_of_range(self, calendar):
        with pytest.raises(IndexError):
            calendar.datetime_at(len(calendar))
        with pytest.raises(IndexError):
            calendar.index_of(datetime(2010, 1, 1))

    def test_must_start_on_hour(self):
        with pytest.raises(ConfigurationError):
            HourlyCalendar(datetime(2006, 1, 1, 0, 30), 24)

    def test_for_days(self):
        cal = HourlyCalendar.for_days(datetime(2008, 12, 16), 24)
        assert len(cal) == 24 * 24
        assert cal.n_days == 24

    def test_arrays_read_only(self, calendar):
        with pytest.raises(ValueError):
            calendar.hour_of_day[0] = 5


@st.composite
def _calendars(draw):
    """Hour-aligned starts in 1990-2040 spanning up to 40 months."""
    start = draw(
        st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2040, 12, 31, 23))
    ).replace(minute=0, second=0, microsecond=0)
    months = draw(st.integers(1, 40))
    return HourlyCalendar(start, draw(st.integers(1, month_range_hours(start, months))))


class TestDecompositionsMatchDatetime:
    """The datetime64 decompositions equal a per-hour ``datetime`` walk."""

    @settings(max_examples=40, deadline=None)
    @given(_calendars())
    @example(HourlyCalendar(datetime(2008, 2, 28, 22), 72))  # across a leap day
    @example(HourlyCalendar(datetime(2039, 12, 31, 20), 10))  # across a year wrap
    @example(HourlyCalendar(datetime(1999, 12, 31, 23), 40 * 31 * 24))  # Y2K + a leap year
    def test_matches_datetime_reference(self, calendar):
        start = calendar.start
        stamps = [start + timedelta(hours=i) for i in range(calendar.n_hours)]
        expected = {
            "hour_of_day": [d.hour for d in stamps],
            "day_of_week": [d.weekday() for d in stamps],
            "month": [d.month for d in stamps],
            "day_of_year": [d.timetuple().tm_yday for d in stamps],
            "month_index": [
                (d.year - start.year) * 12 + (d.month - start.month) for d in stamps
            ],
        }
        for name, values in expected.items():
            got = getattr(calendar, name)
            assert got.dtype == np.int64, name
            np.testing.assert_array_equal(got, np.array(values), err_msg=name)
