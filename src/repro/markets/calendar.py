"""Hourly simulation calendar.

Wholesale markets clear hourly, traffic traces sample every five
minutes, and both demand and price have strong hour-of-day /
day-of-week / month-of-year structure. :class:`HourlyCalendar`
precomputes those index arrays once, with ``numpy.datetime64`` unit
arithmetic (exact integer math, no per-hour ``datetime`` objects), so
that every model component is a vectorised numpy expression.

Daylight-saving time is deliberately ignored: the paper's analysis
(EST/EDT axis labels aside) does not depend on the one-hour shifts, and
a DST-free calendar keeps hour-of-week bucketing unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from repro.errors import ConfigurationError
from repro.units import HOURS_PER_DAY

__all__ = ["HourlyCalendar", "PAPER_START", "PAPER_MONTHS", "month_range_hours"]

#: First hour of the paper's 39-month price data set (January 2006).
PAPER_START = datetime(2006, 1, 1, 0, 0)

#: Length of the paper's price data set: January 2006 - March 2009.
PAPER_MONTHS = 39


def month_range_hours(start: datetime, months: int) -> int:
    """Number of hours in ``months`` calendar months starting at ``start``.

    When ``start``'s day-of-month does not exist ``months`` later (a
    Jan 31 start reaching February, say), the end rolls over to the
    first valid date of the following month — Jan 31 + 1 month ends
    Mar 1 — rather than raising.
    """
    if months < 1:
        raise ConfigurationError(f"months must be >= 1, got {months}")
    year = start.year + (start.month - 1 + months) // 12
    month = (start.month - 1 + months) % 12 + 1
    try:
        end = start.replace(year=year, month=month)
    except ValueError:
        # Day-of-month overflow (e.g. Feb 31): first valid date after.
        year, month = (year, month + 1) if month < 12 else (year + 1, 1)
        end = start.replace(year=year, month=month, day=1)
    return int((end - start).total_seconds() // 3600)


@dataclass(frozen=True)
class HourlyCalendar:
    """A contiguous range of simulation hours with date decompositions.

    All arrays have length :attr:`n_hours` and are keyed by hour index
    ``0..n_hours-1``; index ``i`` covers wall-clock hour ``start + i h``
    (UTC by convention — per-hub local time is derived by adding the
    hub's UTC offset).
    """

    start: datetime
    n_hours: int

    def __post_init__(self) -> None:
        if self.n_hours < 1:
            raise ConfigurationError(f"n_hours must be >= 1, got {self.n_hours}")
        if self.start.minute or self.start.second or self.start.microsecond:
            raise ConfigurationError("calendar must start on an hour boundary")

    @classmethod
    def for_months(
        cls,
        start: datetime = PAPER_START,
        months: int = PAPER_MONTHS,
    ) -> "HourlyCalendar":
        """Calendar covering whole calendar months, paper range by default."""
        return cls(start=start, n_hours=month_range_hours(start, months))

    @classmethod
    def for_days(cls, start: datetime, days: int) -> "HourlyCalendar":
        """Calendar covering an integral number of days."""
        return cls(start=start, n_hours=days * HOURS_PER_DAY)

    # -- cached index arrays ------------------------------------------------

    @property
    def hour_of_day(self) -> np.ndarray:
        """UTC-convention hour of day (0-23) per index."""
        return self._decompositions()[0]

    @property
    def day_of_week(self) -> np.ndarray:
        """Day of week (Monday=0) per index."""
        return self._decompositions()[1]

    @property
    def month(self) -> np.ndarray:
        """Calendar month (1-12) per index."""
        return self._decompositions()[2]

    @property
    def day_of_year(self) -> np.ndarray:
        """Day of year (1-366) per index."""
        return self._decompositions()[3]

    @property
    def month_index(self) -> np.ndarray:
        """Zero-based months-since-start per index (for monthly grouping)."""
        return self._decompositions()[4]

    @property
    def hour_of_week(self) -> np.ndarray:
        """Hour of week (0-167, Monday 00:00 = 0) per index."""
        return self.day_of_week * HOURS_PER_DAY + self.hour_of_day

    @property
    def year_fraction(self) -> np.ndarray:
        """Fractional year position (0 at Jan 1, ~1 at Dec 31)."""
        return (self._decompositions()[3] - 1) / 365.0

    @property
    def elapsed_years(self) -> np.ndarray:
        """Continuous years elapsed since the calendar start."""
        return np.arange(self.n_hours, dtype=float) / (365.25 * HOURS_PER_DAY)

    def _decompositions(self) -> tuple[np.ndarray, ...]:
        cached = getattr(self, "_cache", None)
        if cached is None:
            # Wall-clock fields of ``start``, as ``start + timedelta`` reads
            # them even for an aware start (numpy would shift it to UTC).
            wall = self.start.replace(tzinfo=None)
            hours = np.datetime64(wall, "h") + np.arange(self.n_hours)
            days = hours.astype("datetime64[D]")
            months = hours.astype("datetime64[M]")
            years = hours.astype("datetime64[Y]")
            hod = (hours - days).astype(np.int64)
            # 1970-01-01, day 0 of the epoch, was a Thursday (weekday 3).
            dow = (days.astype(np.int64) + 3) % 7
            month_count = months.astype(np.int64)
            mon = month_count % 12 + 1
            doy = (days - years.astype("datetime64[D]")).astype(np.int64) + 1
            midx = month_count - month_count[0]
            for arr in (hod, dow, mon, doy, midx):
                arr.setflags(write=False)
            cached = (hod, dow, mon, doy, midx)
            object.__setattr__(self, "_cache", cached)
        return cached

    # -- helpers ------------------------------------------------------------

    def local_hour_of_day(self, utc_offset_hours: int) -> np.ndarray:
        """Hour of day shifted to a local UTC offset (0-23)."""
        return (self.hour_of_day + utc_offset_hours) % HOURS_PER_DAY

    def datetime_at(self, index: int) -> datetime:
        """Wall-clock datetime of hour ``index``."""
        if not 0 <= index < self.n_hours:
            raise IndexError(f"hour index {index} outside [0, {self.n_hours})")
        return self.start + timedelta(hours=index)

    def index_of(self, when: datetime) -> int:
        """Hour index containing ``when`` (must lie within the calendar)."""
        delta = when - self.start
        index = int(delta.total_seconds() // 3600)
        if not 0 <= index < self.n_hours:
            raise IndexError(f"{when} outside calendar range")
        return index

    @property
    def end(self) -> datetime:
        """First instant *after* the calendar (exclusive end)."""
        return self.start + timedelta(hours=self.n_hours)

    @property
    def n_days(self) -> float:
        return self.n_hours / HOURS_PER_DAY

    def __len__(self) -> int:
        return self.n_hours
