"""Client demand model: who asks for content, where, and when.

The Akamai trace resolves clients to US states (§4). We model each
state's request rate as

    demand_s(t) = US_peak * share_s * diurnal(local t) * week(t) * noise_s(t)

* ``share_s`` — the state's fraction of national demand, proportional
  to population (clients are people).
* ``diurnal`` — consumer internet traffic peaks in the local evening
  (~21:00) and troughs before dawn, with roughly a 2.5-3x peak-to-
  trough swing (visible in Fig. 14's daily oscillation).
* ``week``   — weekends slightly below weekdays, as in Fig. 14.
* ``noise``  — slow multiplicative jitter plus occasional flash-crowd
  events (news spikes), so percentile statistics are non-trivial.

A separate non-US component reproduces Fig. 14's global-vs-USA split;
it never enters routing (the paper ignores non-US clients in distance
calculations and derives its synthetic workload from US traffic only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.geo.states import StateInfo, all_states
from repro.markets.model import ar1_filter
from repro.units import HOURS_PER_DAY

__all__ = ["DemandModelConfig", "DemandModel"]


@dataclass(frozen=True, slots=True)
class DemandModelConfig:
    """Knobs of the synthetic demand process."""

    #: National US peak request rate, hits/s (Fig. 14: ~1.25 M).
    us_peak_hits: float = 1.25e6
    #: Fraction of global traffic originating in the US (Fig. 14 shows
    #: a >2 M global peak against the 1.25 M US peak).
    us_share_of_global: float = 0.625
    #: Local hour of the evening demand peak.
    peak_local_hour: float = 21.0
    #: Peak-to-trough ratio of the diurnal curve.
    diurnal_swing: float = 2.8
    #: Weekend demand multiplier.
    weekend_factor: float = 0.93
    #: Marginal sigma of slow per-state demand jitter.
    noise_sigma: float = 0.06
    #: AR(1) persistence of jitter at five-minute resolution.
    noise_phi: float = 0.98
    #: Flash-crowd events per week (national news spikes).
    flash_rate_per_week: float = 1.0
    #: Peak multiplier of a flash crowd.
    flash_peak: float = 1.4
    #: Flash-crowd duration, five-minute steps (mean of geometric).
    flash_duration_steps: int = 18

    def __post_init__(self) -> None:
        if self.us_peak_hits <= 0:
            raise ConfigurationError("US peak must be positive")
        if not 0.0 < self.us_share_of_global <= 1.0:
            raise ConfigurationError("US share of global traffic must be in (0, 1]")
        if self.diurnal_swing < 1.0:
            raise ConfigurationError("diurnal swing must be >= 1")


class DemandModel:
    """Generates per-state request-rate series.

    All stochastic draws flow through the ``numpy.random.Generator``
    passed to :meth:`sample`, keeping traces reproducible.
    """

    def __init__(
        self,
        config: DemandModelConfig | None = None,
        states: list[StateInfo] | None = None,
    ) -> None:
        self._config = config or DemandModelConfig()
        self._states = states if states is not None else all_states(contiguous_only=True)
        populations = np.array([s.population for s in self._states], dtype=float)
        self._shares = populations / populations.sum()
        self._utc_offsets = np.array([s.utc_offset_hours for s in self._states])

    @property
    def config(self) -> DemandModelConfig:
        return self._config

    @property
    def states(self) -> list[StateInfo]:
        return list(self._states)

    @property
    def state_codes(self) -> tuple[str, ...]:
        return tuple(s.code for s in self._states)

    @property
    def shares(self) -> np.ndarray:
        """Per-state fraction of national demand (sums to 1)."""
        return self._shares.copy()

    # -- deterministic shape -------------------------------------------------

    def diurnal_factor(self, hour_of_day_utc: np.ndarray) -> np.ndarray:
        """Diurnal multipliers, shape ``(n_steps, n_states)``.

        Normalised so the curve's maximum is 1.0 (national peak rate
        scales the whole process).
        """
        cfg = self._config
        local = (hour_of_day_utc[:, None] + self._utc_offsets[None, :]) % HOURS_PER_DAY
        phase = 2 * np.pi * (local - cfg.peak_local_hour) / HOURS_PER_DAY
        base = np.cos(phase) + 0.22 * np.cos(2 * phase)
        base = (base - base.min()) / (base.max() - base.min())  # -> [0, 1]
        trough = 1.0 / cfg.diurnal_swing
        return trough + (1.0 - trough) * base

    def weekly_factor(self, day_of_week: np.ndarray) -> np.ndarray:
        """Weekend multiplier per step."""
        return np.where(day_of_week >= 5, self._config.weekend_factor, 1.0)

    # -- stochastic sampling --------------------------------------------------

    def sample(
        self,
        hour_of_day_utc: np.ndarray,
        day_of_week: np.ndarray,
        rng: np.random.Generator,
        step_seconds: int = 300,
    ) -> np.ndarray:
        """Per-state demand, hits/s, shape ``(n_steps, n_states)``.

        ``hour_of_day_utc`` may be fractional (five-minute steps).
        """
        cfg = self._config
        hour = np.asarray(hour_of_day_utc, dtype=float)
        dow = np.asarray(day_of_week)
        if hour.shape != dow.shape:
            raise ConfigurationError("hour and day arrays must align")
        n = hour.size

        shape = self.diurnal_factor(hour) * self.weekly_factor(dow)[:, None]
        base = cfg.us_peak_hits * self._shares[None, :] * shape

        # Slow multiplicative jitter, independent across states: one
        # row of shocks per state (the same stream as one draw of n per
        # state in turn), filtered in a single call.
        shocks = rng.standard_normal((len(self._states), n))
        log_jitter = ar1_filter(shocks, cfg.noise_phi, cfg.noise_sigma)
        noise = np.exp(log_jitter - cfg.noise_sigma**2 / 2.0).T

        demand = base * noise
        self._apply_flash_crowds(demand, rng, step_seconds)
        return demand

    def _apply_flash_crowds(
        self,
        demand: np.ndarray,
        rng: np.random.Generator,
        step_seconds: int,
    ) -> None:
        """Overlay flash-crowd multipliers in place."""
        cfg = self._config
        n = demand.shape[0]
        steps_per_week = 7 * 24 * 3600 // step_seconds
        n_events = rng.poisson(cfg.flash_rate_per_week * n / steps_per_week)
        for _ in range(n_events):
            start = int(rng.integers(0, n))
            duration = 1 + int(rng.geometric(1.0 / cfg.flash_duration_steps))
            stop = min(n, start + duration)
            # Triangular ramp up/down around the event midpoint.
            length = stop - start
            ramp = 1.0 - np.abs(np.linspace(-1.0, 1.0, length))
            boost = 1.0 + (cfg.flash_peak - 1.0) * ramp
            demand[start:stop] *= boost[:, None]

    def non_us_demand(self, hour_of_day_utc: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Aggregate non-US request rate per step, hits/s.

        Flatter than US demand (it sums many time zones) and phase-
        shifted toward European/Asian evenings. Only used to render the
        Fig. 14 global series.
        """
        cfg = self._config
        us_total_peak = cfg.us_peak_hits
        non_us_peak = us_total_peak * (1.0 - cfg.us_share_of_global) / cfg.us_share_of_global
        hour = np.asarray(hour_of_day_utc, dtype=float)
        # Blend of a Europe-centred (peak ~20:00 UTC+1) and an Asia-
        # centred (peak ~21:00 UTC+8) evening curve.
        europe = np.cos(2 * np.pi * (hour - 19.0) / 24.0)
        asia = np.cos(2 * np.pi * (hour - 13.0) / 24.0)
        base = 0.75 + 0.25 * (0.6 * europe + 0.4 * asia)
        jitter = np.exp(ar1_filter(rng.standard_normal(hour.size), 0.98, 0.04))
        return non_us_peak * base * jitter / (base * jitter).max()
