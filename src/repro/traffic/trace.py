"""Traffic trace containers.

:class:`TrafficTrace` is the stand-in for the paper's 24-day Akamai
data set: regularly sampled per-state request rates (plus an optional
aggregate non-US series for the Fig. 14 global view).
:class:`HourOfWeekWorkload` is the §6.1 synthetic long workload: the
trace's hour-of-week averages, expandable over any calendar.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from repro.errors import ConfigurationError
from repro.markets.calendar import HourlyCalendar
from repro.units import HOURS_PER_WEEK, SECONDS_PER_HOUR

__all__ = ["TrafficTrace", "HourOfWeekWorkload"]


@dataclass(frozen=True)
class TrafficTrace:
    """Per-state request rates at a fixed sampling interval.

    Attributes
    ----------
    start:
        Timestamp of the first sample.
    step_seconds:
        Sampling interval (300 for the paper's five-minute data).
    state_codes:
        Column order of :attr:`demand`.
    demand:
        ``(n_steps, n_states)`` request rates, hits/s (read-only).
    non_us:
        Optional aggregate non-US rate per step, hits/s.
    """

    start: datetime
    step_seconds: int
    state_codes: tuple[str, ...]
    demand: np.ndarray
    non_us: np.ndarray | None = None

    def __post_init__(self) -> None:
        demand = np.asarray(self.demand, dtype=float)
        if demand.ndim != 2:
            raise ConfigurationError(f"demand must be 2-D, got shape {demand.shape}")
        if demand.shape[1] != len(self.state_codes):
            raise ConfigurationError(
                f"demand has {demand.shape[1]} columns for {len(self.state_codes)} states"
            )
        if demand.shape[0] == 0:
            raise ConfigurationError("trace must contain at least one sample")
        if np.any(demand < 0) or not np.all(np.isfinite(demand)):
            raise ConfigurationError("demand must be finite and non-negative")
        demand = demand.copy()
        demand.setflags(write=False)
        object.__setattr__(self, "demand", demand)
        if self.non_us is not None:
            non_us = np.asarray(self.non_us, dtype=float).copy()
            if non_us.shape != (demand.shape[0],):
                raise ConfigurationError("non_us series must have one value per step")
            non_us.setflags(write=False)
            object.__setattr__(self, "non_us", non_us)

    # -- shape ----------------------------------------------------------------

    @property
    def n_steps(self) -> int:
        return int(self.demand.shape[0])

    @property
    def n_states(self) -> int:
        return int(self.demand.shape[1])

    @property
    def duration_hours(self) -> float:
        return self.n_steps * self.step_seconds / SECONDS_PER_HOUR

    @property
    def nbytes(self) -> int:
        """Bytes held by the trace's arrays (demand and non-US series)."""
        return self.demand.nbytes + (0 if self.non_us is None else self.non_us.nbytes)

    def time_axis(self) -> list[datetime]:
        step = timedelta(seconds=self.step_seconds)
        return [self.start + i * step for i in range(self.n_steps)]

    # -- aggregates ------------------------------------------------------------

    def total_us(self) -> np.ndarray:
        """National request rate per step, hits/s."""
        return self.demand.sum(axis=1)

    def total_global(self) -> np.ndarray:
        """Global request rate per step (US + non-US), hits/s."""
        totals = self.total_us()
        if self.non_us is not None:
            totals = totals + self.non_us
        return totals

    @property
    def peak_us(self) -> float:
        return float(self.total_us().max())

    @property
    def peak_global(self) -> float:
        return float(self.total_global().max())

    # -- transforms ------------------------------------------------------------

    def resample_hourly(self) -> "TrafficTrace":
        """Block-average to hourly resolution (drops a trailing partial hour)."""
        if self.step_seconds == SECONDS_PER_HOUR:
            return self
        if SECONDS_PER_HOUR % self.step_seconds:
            raise ConfigurationError(f"step of {self.step_seconds}s does not divide an hour")
        factor = SECONDS_PER_HOUR // self.step_seconds
        n = (self.n_steps // factor) * factor
        if n == 0:
            raise ConfigurationError("trace shorter than one hour")
        demand = self.demand[:n].reshape(-1, factor, self.n_states).mean(axis=1)
        non_us = None
        if self.non_us is not None:
            non_us = self.non_us[:n].reshape(-1, factor).mean(axis=1)
        return TrafficTrace(
            start=self.start,
            step_seconds=SECONDS_PER_HOUR,
            state_codes=self.state_codes,
            demand=demand,
            non_us=non_us,
        )

    def hour_of_week_average(self) -> np.ndarray:
        """Mean demand per (hour-of-week, state), shape ``(168, n_states)``.

        §6.1: "We calculated an average hit rate for every hub and
        client state pair... a different average for each hour of the
        day and each day of the week."
        """
        hourly = self.resample_hourly()
        start_how = hourly.start.weekday() * 24 + hourly.start.hour
        hows = (start_how + np.arange(hourly.n_steps)) % HOURS_PER_WEEK
        out = np.zeros((HOURS_PER_WEEK, self.n_states))
        counts = np.zeros(HOURS_PER_WEEK)
        np.add.at(out, hows, hourly.demand)
        np.add.at(counts, hows, 1.0)
        if np.any(counts == 0):
            raise ConfigurationError("trace too short to cover every hour of the week")
        return out / counts[:, None]


class HourOfWeekWorkload:
    """The §6.1 synthetic long workload.

    Wraps an hour-of-week average table and expands it over an
    arbitrary :class:`HourlyCalendar` — deterministic by construction,
    which is what lets the 39-month simulations isolate *price*
    variation from workload variation.
    """

    def __init__(self, state_codes: tuple[str, ...], hour_of_week_table: np.ndarray) -> None:
        table = np.asarray(hour_of_week_table, dtype=float)
        if table.shape != (HOURS_PER_WEEK, len(state_codes)):
            raise ConfigurationError(
                f"expected table shape ({HOURS_PER_WEEK}, {len(state_codes)}), got {table.shape}"
            )
        if np.any(table < 0):
            raise ConfigurationError("workload table must be non-negative")
        table = table.copy()
        table.setflags(write=False)
        self._codes = tuple(state_codes)
        self._table = table

    @classmethod
    def from_trace(cls, trace: TrafficTrace) -> "HourOfWeekWorkload":
        return cls(trace.state_codes, trace.hour_of_week_average())

    @property
    def state_codes(self) -> tuple[str, ...]:
        return self._codes

    @property
    def table(self) -> np.ndarray:
        """Read-only ``(168, n_states)`` hour-of-week demand table."""
        return self._table

    def expand(self, calendar: HourlyCalendar) -> TrafficTrace:
        """Hourly demand trace over ``calendar``."""
        start_how = calendar.start.weekday() * 24 + calendar.start.hour
        hows = (start_how + np.arange(calendar.n_hours)) % HOURS_PER_WEEK
        return TrafficTrace(
            start=calendar.start,
            step_seconds=SECONDS_PER_HOUR,
            state_codes=self._codes,
            demand=self._table[hows],
        )
