"""Synthetic trace generation: the 24-day turn-of-year data set.

The paper's trace covers "24 days and some hours" of five-minute
samples around the 2008/2009 year boundary (Fig. 14's axis runs from
mid-December to early January). :func:`make_turn_of_year_trace`
generates our statistically equivalent stand-in; §6.3's long synthetic
workload is then derived from it via
:class:`repro.traffic.trace.HourOfWeekWorkload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from repro.errors import ConfigurationError
from repro.traffic.demand import DemandModel, DemandModelConfig
from repro.traffic.trace import TrafficTrace
from repro.units import DAYS_PER_WEEK, FIVE_MINUTES, SECONDS_PER_DAY

__all__ = ["TraceConfig", "make_trace", "make_turn_of_year_trace", "PAPER_TRACE_START"]

#: First sample of the paper-matching trace window (five-minute data
#: beginning mid-December 2008, inside the 39-month price calendar).
PAPER_TRACE_START = datetime(2008, 12, 16, 0, 0)

#: "24 days worth" plus "some hours" (§6.1).
_PAPER_TRACE_DAYS = 24
_PAPER_EXTRA_STEPS = 66


@dataclass(frozen=True, slots=True)
class TraceConfig:
    """Configuration of one synthetic trace."""

    start: datetime = PAPER_TRACE_START
    n_steps: int = _PAPER_TRACE_DAYS * SECONDS_PER_DAY // FIVE_MINUTES + _PAPER_EXTRA_STEPS
    step_seconds: int = FIVE_MINUTES
    seed: int = 1224
    demand: DemandModelConfig = DemandModelConfig()
    include_non_us: bool = True

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ConfigurationError("trace needs at least one step")
        if self.step_seconds < 1:
            raise ConfigurationError("step must be positive")
        if self.step_seconds > DAYS_PER_WEEK * SECONDS_PER_DAY:
            # Flash crowds arrive at a weekly rate, counted in whole
            # steps per week.
            raise ConfigurationError(f"step must be at most one week, got {self.step_seconds} s")


def make_trace(config: TraceConfig | None = None) -> TrafficTrace:
    """Generate a trace from a configuration (deterministic per seed)."""
    cfg = config or TraceConfig()
    model = DemandModel(cfg.demand)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 14]))

    step_hours = cfg.step_seconds / 3600.0
    offsets = np.arange(cfg.n_steps) * step_hours
    start_hour = cfg.start.hour + cfg.start.minute / 60.0
    hour_of_day = (start_hour + offsets) % 24.0
    day_of_week = ((cfg.start.weekday() + (start_hour + offsets) // 24.0)).astype(int) % 7

    demand = model.sample(hour_of_day, day_of_week, rng, cfg.step_seconds)
    non_us = model.non_us_demand(hour_of_day, rng) if cfg.include_non_us else None
    return TrafficTrace(
        start=cfg.start,
        step_seconds=cfg.step_seconds,
        state_codes=model.state_codes,
        demand=demand,
        non_us=non_us,
    )


def make_turn_of_year_trace(seed: int = 1224) -> TrafficTrace:
    """The default 24-day, five-minute, turn-of-2008/2009 trace."""
    return make_trace(TraceConfig(seed=seed))
