"""Market data set generation.

:func:`generate_market` produces the library's stand-in for the paper's
39 months of RTO price archives: hourly real-time prices for all 29
hubs with the documented statistical structure, plus derived day-ahead
(hourly) and real-time five-minute feeds for any hub.

The three market feeds are related the way §2.2/Fig. 4/Fig. 5 describe:

* the **real-time hourly** feed is the primary series;
* the **day-ahead** feed shares the deterministic level and a day-wide
  shock, but has much less high-frequency noise and a slightly higher
  mean (the RT market clears lower on average);
* the **five-minute** feed is the hourly RT feed plus extra
  high-frequency mean-reverting noise (more volatile at short windows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from repro.errors import ConfigurationError, UnknownHubError
from repro.markets.calendar import PAPER_MONTHS, PAPER_START, HourlyCalendar
from repro.markets.correlation import CorrelationModel, build_target_matrix, correlated_normals
from repro.markets.hubs import ALL_HUB_CODES, Hub, get_hub
from repro.markets.model import (
    PRICE_FLOOR,
    PriceModelConfig,
    _level,
    ar1_filter,
    daily_anomaly_matrix,
    diurnal_multiplier,
    fuel_multiplier,
    seasonal_multiplier,
    spike_matrix,
    volatility_matrix,
    weekly_multiplier,
)
from repro.markets.series import PriceSeries
from repro.units import MINUTES_PER_HOUR, SECONDS_PER_HOUR

__all__ = ["MarketConfig", "MarketDataset", "generate_market"]

#: Number of five-minute intervals per hour.
_FIVE_MIN_PER_HOUR = MINUTES_PER_HOUR // 5


@dataclass(frozen=True, slots=True)
class MarketConfig:
    """Configuration for one synthetic market data set."""

    start: datetime = PAPER_START
    months: int = PAPER_MONTHS
    hub_codes: tuple[str, ...] = ALL_HUB_CODES
    seed: int = 2009
    model: PriceModelConfig = field(default_factory=PriceModelConfig)
    correlation: CorrelationModel = field(default_factory=CorrelationModel)
    #: Day-ahead mean premium over real-time (§3.1: RT clears lower).
    day_ahead_premium: float = 1.04
    #: Extra five-minute noise sigma as a fraction of hub sigma.
    five_minute_sigma_fraction: float = 0.45

    def __post_init__(self) -> None:
        if not self.hub_codes:
            raise ConfigurationError("at least one hub required")
        if len(set(self.hub_codes)) != len(self.hub_codes):
            raise ConfigurationError("duplicate hub codes in config")


class MarketDataset:
    """Generated market prices for a roster of hubs over a calendar.

    The heavy arrays are built once in :func:`generate_market`; this
    class provides aligned views. Hub order is the config order
    throughout (``price_matrix[:, j]`` belongs to ``hubs[j]``).
    """

    def __init__(
        self,
        config: MarketConfig,
        calendar: HourlyCalendar,
        hubs: list[Hub],
        real_time: np.ndarray,
        day_ahead: np.ndarray,
    ) -> None:
        self._config = config
        self._calendar = calendar
        self._hubs = hubs
        self._hub_index = {h.code: j for j, h in enumerate(hubs)}
        real_time.setflags(write=False)
        day_ahead.setflags(write=False)
        self._rt = real_time
        self._da = day_ahead

    # -- structure ----------------------------------------------------------

    @property
    def config(self) -> MarketConfig:
        return self._config

    @property
    def calendar(self) -> HourlyCalendar:
        return self._calendar

    @property
    def hubs(self) -> list[Hub]:
        return list(self._hubs)

    @property
    def hub_codes(self) -> tuple[str, ...]:
        return tuple(h.code for h in self._hubs)

    def hub_column(self, code: str) -> int:
        """Column index of a hub in the price matrices."""
        try:
            return self._hub_index[code]
        except KeyError:
            raise UnknownHubError(code) from None

    # -- price access ---------------------------------------------------------

    @property
    def price_matrix(self) -> np.ndarray:
        """Real-time hourly prices, shape ``(n_hours, n_hubs)``, $/MWh."""
        return self._rt

    @property
    def day_ahead_matrix(self) -> np.ndarray:
        """Day-ahead hourly prices, same shape as :attr:`price_matrix`."""
        return self._da

    def real_time(self, code: str) -> PriceSeries:
        """Real-time hourly price series for one hub."""
        j = self.hub_column(code)
        return PriceSeries(self._calendar.start, self._rt[:, j], SECONDS_PER_HOUR, label=code)

    def day_ahead(self, code: str) -> PriceSeries:
        """Day-ahead hourly price series for one hub."""
        j = self.hub_column(code)
        return PriceSeries(
            self._calendar.start,
            self._da[:, j],
            SECONDS_PER_HOUR,
            label=f"{code}/DA",
        )

    def five_minute(self, code: str, start_hour: int, n_hours: int) -> PriceSeries:
        """Five-minute real-time prices for a window of the calendar.

        Generated on demand (the full 39-month five-minute tape would
        be 12x the hourly data for little benefit); deterministic for a
        given dataset seed, hub, and window.
        """
        if not 0 <= start_hour < start_hour + n_hours <= self._calendar.n_hours:
            raise ConfigurationError(
                f"five-minute window [{start_hour}, {start_hour + n_hours}) outside calendar"
            )
        j = self.hub_column(code)
        hub = self._hubs[j]
        hourly = self._rt[start_hour : start_hour + n_hours, j]
        expanded = np.repeat(hourly, _FIVE_MIN_PER_HOUR)
        # Window-specific deterministic seed: reproducible across
        # processes (no str hashing), unique per hub and window.
        seed_seq = np.random.SeedSequence([self._config.seed, 5, j, start_hour, n_hours])
        rng = np.random.default_rng(seed_seq)
        sigma = hub.price_sigma * self._config.five_minute_sigma_fraction
        noise = ar1_filter(rng.standard_normal(expanded.size), phi=0.85, sigma=sigma)
        values = np.maximum(PRICE_FLOOR, expanded + noise)
        from datetime import timedelta

        start = self._calendar.start + timedelta(hours=start_hour)
        return PriceSeries(start, values, step_seconds=300, label=f"{code}/5min")

    def lagged_price_matrix(self, delay_hours: int) -> np.ndarray:
        """Real-time prices as seen by a system reacting late (§6.4).

        Row ``t`` holds the price from hour ``t - delay_hours`` (the
        first rows repeat the initial price). ``delay_hours=0`` is the
        instant-reaction oracle; the paper's simulations default to 1.
        """
        if delay_hours < 0:
            raise ConfigurationError(f"delay must be non-negative, got {delay_hours}")
        if delay_hours == 0:
            return self._rt
        lagged = np.empty_like(self._rt)
        lagged[:delay_hours] = self._rt[0]
        lagged[delay_hours:] = self._rt[:-delay_hours]
        return lagged

    def mean_prices(self) -> np.ndarray:
        """Per-hub mean real-time price over the whole calendar."""
        return self._rt.mean(axis=0)

    def cheapest_hub(self) -> str:
        """Hub with the lowest mean real-time price (the static choice)."""
        return self._hubs[int(np.argmin(self.mean_prices()))].code


def generate_market(config: MarketConfig | None = None) -> MarketDataset:
    """Generate a full market data set from a configuration.

    Deterministic given ``config.seed``. The default configuration
    reproduces the paper's setting: 29 hubs, January 2006 through March
    2009 (39 months, >28k hourly samples per hub).
    """
    cfg = config or MarketConfig()
    calendar = HourlyCalendar.for_months(cfg.start, cfg.months)
    hubs = [get_hub(code) for code in cfg.hub_codes]
    rng = np.random.default_rng(cfg.seed)

    n, m = calendar.n_hours, len(hubs)
    fuel = fuel_multiplier(calendar, rng, cfg.model)

    # Correlated AR(1) noise: draw cross-correlated innovations, then
    # filter each hub's series. Using one shared phi preserves the
    # cross-sectional correlation of the innovations in the levels.
    # Per-hub work below runs on hub-major (m, n) rows.
    target = build_target_matrix(hubs, cfg.correlation)
    innovations = correlated_normals(n, target, rng).T
    volatility = volatility_matrix(calendar, hubs, rng, cfg.model).T
    spikes = spike_matrix(calendar, hubs, rng, cfg.model).T
    anomalies = daily_anomaly_matrix(calendar, hubs, rng, cfg.model).T

    # Calendar-only level factors, shared by every hub (the diurnal
    # curve by every hub in one time zone).
    seasonal = seasonal_multiplier(calendar, cfg.model)
    weekly = weekly_multiplier(calendar, cfg.model)
    diurnal: dict[int, np.ndarray] = {}
    for hub in hubs:
        if hub.utc_offset_hours not in diurnal:
            diurnal[hub.utc_offset_hours] = diurnal_multiplier(calendar, hub, cfg.model)
    day_ids = np.arange(n) // 24
    n_days = int(day_ids[-1]) + 1
    pad = (-n) % 24

    real_time = np.empty((m, n))
    day_ahead = np.empty((m, n))
    for j, hub in enumerate(hubs):
        # Stochastic volatility concentrates mass in the tails that the
        # 1% trim later removes, shrinking the *trimmed* sigma below the
        # raw one; compensate with the empirical shrink factor so each
        # hub's trimmed sigma lands near its Fig. 6 target.
        s = cfg.model.sv_base + cfg.model.sv_spikiness_slope * hub.spikiness
        trim_shrink = max(0.50, 1.12 - 0.50 * s)
        sigma = hub.price_sigma * cfg.model.noise_sigma_fraction / trim_shrink
        base = ar1_filter(innovations[j], phi=cfg.model.ar1_phi, sigma=sigma)
        base *= volatility[j]
        beta = cfg.model.skew_beta_slope * hub.spikiness
        # The quadratic skew is capped a few sigma out: it shapes the
        # bulk's asymmetry, while genuine extremes stay the job of the
        # spike process (otherwise rare volatility tails explode).
        capped = np.minimum(np.maximum(base, 0.0), 4.0 * sigma)
        noise = base + beta * capped**2 / sigma

        level = _level(hub, fuel, seasonal, diurnal[hub.utc_offset_hours], weekly)
        real_time[j] = np.maximum(PRICE_FLOOR, level + noise + anomalies[j] + spikes[j])

        # Day-ahead: same level (with premium) + the *forecastable*
        # part of the day's realised conditions + small hourly noise.
        # Day-scale deviations (weather, fuel, outages) are largely
        # known a day ahead, which is why RT and DA window-sigmas
        # converge near the 24 h window in Fig. 5.
        rt_residual = real_time[j] - level
        padded = np.concatenate([rt_residual, np.zeros(pad)])
        daily_residual = padded.reshape(-1, 24).mean(axis=1)[:n_days]
        forecast = 0.85 * daily_residual[day_ids]
        day_shock_daily = rng.standard_normal(n_days) * hub.price_sigma * 0.18
        day_shock = forecast + day_shock_daily[day_ids]
        small = ar1_filter(rng.standard_normal(n), phi=0.6, sigma=hub.price_sigma * 0.22)
        # Anchor the day-ahead level to the *realised* RT mean (the
        # skew and spike components lift RT above the deterministic
        # level), then apply the premium: §3.1 observes the RT market
        # clears lower on average than day-ahead.
        uplift = float(real_time[j].mean()) / float(level.mean())
        da_level = cfg.day_ahead_premium * uplift * level
        day_ahead[j] = np.maximum(PRICE_FLOOR, da_level + anomalies[j] + day_shock + small)

    return MarketDataset(
        cfg, calendar, hubs, np.ascontiguousarray(real_time.T), np.ascontiguousarray(day_ahead.T)
    )
