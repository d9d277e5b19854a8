"""Structural components of the hub price model.

The generator composes hourly prices as

    P_h(t) = level_h(t) + noise_h(t) + spikes_h(t)

    level_h(t) = mean_h * fuel_h(t) * season(t) * diurnal_h(t) * week(t)

with each factor reproducing one empirical feature from §3 of the
paper:

* ``fuel``    — the shared natural-gas trend: mild through 2006-07, a
  large hump peaking mid-2008 (record gas prices), then a downturn-
  driven slide into 2009 (Fig. 3). Hubs couple to it according to
  their region's generation mix (hydro regions barely move).
* ``season``  — summer peak plus a smaller winter shoulder.
* ``diurnal`` — local-time daily demand curve; afternoon peak. Because
  hubs sit in four time zones, peaks are offset, which is exactly the
  time-of-day differential structure of Fig. 12.
* ``week``    — weekend discount.
* ``noise``   — mean-reverting AR(1) innovations, cross-hub correlated
  per :mod:`repro.markets.correlation` (Fig. 8).
* ``spikes``  — Poisson-arriving, Pareto-sized, exponentially decaying
  excursions, occasionally negative (§2.2 notes negative prices), which
  produce the heavy tails of Figs. 6/7 (kurtosis up to ~12 in trimmed
  prices, far higher in raw changes).

All functions are deterministic given the calendar and an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.markets.calendar import HourlyCalendar
from repro.markets.hubs import Hub
from repro.markets.rto import RTO_INFO

__all__ = [
    "PriceModelConfig",
    "fuel_multiplier",
    "seasonal_multiplier",
    "diurnal_multiplier",
    "weekly_multiplier",
    "deterministic_level",
    "ar1_filter",
    "volatility_matrix",
    "daily_anomaly_matrix",
    "spike_matrix",
    "spike_series",
    "PRICE_FLOOR",
]

#: Hard floor applied to generated prices, $/MWh. Real markets clear
#: slightly negative for brief periods (§2.2); we allow that but keep a
#: sane bound.
PRICE_FLOOR = -50.0


@dataclass(frozen=True, slots=True)
class PriceModelConfig:
    """Tunable knobs of the price process.

    Defaults are calibrated so the generated 39-month series land near
    the paper's published per-hub statistics (Fig. 6) and hourly-change
    tails (Fig. 7); the calibration tests pin the acceptable bands.
    """

    diurnal_amplitude: float = 0.24
    diurnal_peak_local_hour: float = 16.0
    weekend_discount: float = 0.10
    seasonal_amplitude: float = 0.10
    winter_amplitude: float = 0.05
    #: std-dev of the AR(1) noise component, as a fraction of the hub's
    #: target trimmed sigma.
    noise_sigma_fraction: float = 0.80
    #: AR(1) persistence of hourly noise.
    ar1_phi: float = 0.62
    #: Base and per-spikiness slope of the stochastic-volatility
    #: intensity. Real hourly prices are strongly heteroskedastic —
    #: calm weeks then turbulent ones (Fig. 4) — which is what puts the
    #: trimmed kurtosis at 4.6-11.9 (Fig. 6) instead of a Gaussian 3.
    sv_base: float = 0.35
    sv_spikiness_slope: float = 0.30
    #: Upward-skew strength per unit spikiness: prices are floored by
    #: marginal generation cost but unbounded above, so the noise bulk
    #: itself is right-skewed (positive excursions are amplified
    #: quadratically). This, with the volatility mixing, reproduces the
    #: 1%-trimmed kurtosis range of Fig. 6.
    skew_beta_slope: float = 0.22
    #: AR(1) persistence of the (log) volatility state: regime changes
    #: play out over days-weeks.
    sv_phi: float = 0.99
    #: Loading of a hub's volatility on the shared RTO volatility state
    #: (the rest is local). Keeps same-RTO co-movement high through
    #: turbulent periods without coupling different markets.
    sv_regional_loading: float = 0.93
    #: Multiplier on the RTO base spike arrival rates. The trimmed
    #: kurtosis of real prices (4.6-11.9 in Fig. 6) requires *frequent
    #: moderate* congestion events, not only rare huge ones.
    spike_rate_multiplier: float = 7.0
    #: Scale ($/MWh) of spike magnitudes before hub spikiness weighting.
    spike_scale: float = 26.0
    #: Pareto tail exponent of spike magnitudes (lower = heavier tail).
    spike_alpha: float = 1.6
    #: Per-hour decay factor of an active spike.
    spike_decay: float = 0.45
    #: Cap on a single spike's magnitude, $/MWh.
    spike_max: float = 500.0
    #: Probability that a spike event hits the whole RTO rather than a
    #: single hub. Congestion and scarcity are regional phenomena; the
    #: shared component is what keeps same-RTO hourly correlation high
    #: (CAISO's two zones correlate at 0.94 in the paper).
    spike_regional_share: float = 0.8
    #: Arrival rate of negative-price dips, events per thousand hours.
    negative_rate_per_kh: float = 0.4
    #: Day-scale demand anomalies (heat waves, cold snaps): a regional
    #: daily level, AR(1) *across days*, scaled by the local afternoon
    #: peak shape. This makes prices "correlated for a given hour from
    #: one day to the next" — the mechanism behind Fig. 20's local
    #: minimum at a 24-hour reaction delay.
    daily_anomaly_sigma_fraction: float = 0.4
    daily_anomaly_phi: float = 0.65
    #: Fuel-trend hump amplitude (2008 peak reaches ~1 + hump).
    fuel_hump: float = 0.45
    #: Post-hump downturn depth (early-2009 level ~ 1 - downturn).
    fuel_downturn: float = 0.22
    #: std-dev of the slow stochastic wander around the fuel trend.
    fuel_wander_sigma: float = 0.05


def fuel_multiplier(
    calendar: HourlyCalendar,
    rng: np.random.Generator,
    config: PriceModelConfig | None = None,
) -> np.ndarray:
    """Shared fuel-price multiplier, one value per hour.

    Deterministic shape: flat near 1.0, a Gaussian hump centred
    mid-2008, and a sigmoid slide after late 2008 (the economic
    downturn the paper notes in Fig. 3) — plus a slow mean-reverting
    stochastic wander so different seeds differ.
    """
    cfg = config or PriceModelConfig()
    # Years elapsed since the calendar start; the paper range starts
    # Jan 2006, putting mid-2008 at ~2.5 elapsed years.
    base_year = calendar.start.year + (calendar.start.timetuple().tm_yday - 1) / 365.0
    years = base_year + calendar.elapsed_years
    hump = cfg.fuel_hump * np.exp(-((years - 2008.55) ** 2) / (2 * 0.28**2))
    downturn = cfg.fuel_downturn / (1.0 + np.exp(-(years - 2008.95) / 0.07))
    base = 1.0 + hump - downturn
    wander = ar1_filter(
        rng.standard_normal(calendar.n_hours),
        phi=0.9995,
        sigma=cfg.fuel_wander_sigma,
    )
    return np.maximum(0.4, base + wander)


def seasonal_multiplier(
    calendar: HourlyCalendar,
    config: PriceModelConfig | None = None,
) -> np.ndarray:
    """Annual seasonality: summer cooling peak, smaller winter shoulder."""
    cfg = config or PriceModelConfig()
    yf = calendar.year_fraction
    summer = cfg.seasonal_amplitude * np.cos(2 * np.pi * (yf - 0.55))
    winter = cfg.winter_amplitude * np.cos(4 * np.pi * (yf - 0.02))
    return 1.0 + summer + winter


def diurnal_multiplier(
    calendar: HourlyCalendar,
    hub: Hub,
    config: PriceModelConfig | None = None,
) -> np.ndarray:
    """Local-time daily demand curve for one hub.

    A smooth two-harmonic profile with its maximum near the configured
    local peak hour and a deep overnight trough. Different UTC offsets
    shift this curve, so East- and West-coast hubs peak ~3 hours apart
    in absolute time — the mechanism behind Fig. 12's hour-of-day
    differential structure.
    """
    cfg = config or PriceModelConfig()
    local = calendar.local_hour_of_day(hub.utc_offset_hours).astype(float)
    phase = 2 * np.pi * (local - cfg.diurnal_peak_local_hour) / 24.0
    primary = np.cos(phase)
    # Second harmonic sharpens the afternoon peak and flattens the
    # overnight trough relative to a pure sinusoid.
    secondary = 0.35 * np.cos(2 * phase)
    profile = (primary + secondary) / 1.35
    return 1.0 + cfg.diurnal_amplitude * profile


def weekly_multiplier(
    calendar: HourlyCalendar,
    config: PriceModelConfig | None = None,
) -> np.ndarray:
    """Weekend discount: commercial demand drops on Saturday/Sunday."""
    cfg = config or PriceModelConfig()
    weekend = calendar.day_of_week >= 5
    return np.where(weekend, 1.0 - cfg.weekend_discount, 1.0)


def deterministic_level(
    calendar: HourlyCalendar,
    hub: Hub,
    fuel: np.ndarray,
    config: PriceModelConfig | None = None,
) -> np.ndarray:
    """The full deterministic price level for one hub, $/MWh."""
    cfg = config or PriceModelConfig()
    return _level(
        hub,
        fuel,
        seasonal_multiplier(calendar, cfg),
        diurnal_multiplier(calendar, hub, cfg),
        weekly_multiplier(calendar, cfg),
    )


def _level(
    hub: Hub,
    fuel: np.ndarray,
    seasonal: np.ndarray,
    diurnal: np.ndarray,
    weekly: np.ndarray,
) -> np.ndarray:
    """:func:`deterministic_level` from precomputed calendar factors.

    Market generation shares the calendar-only factors across hubs and
    calls this directly; the product order is the level formula's.
    """
    coupling = RTO_INFO[hub.rto].gas_coupling
    hub_fuel = 1.0 + coupling * (fuel - 1.0)
    return hub.mean_price * hub_fuel * seasonal * diurnal * weekly


def ar1_filter(innovations: np.ndarray, phi: float, sigma: float) -> np.ndarray:
    """Stationary AR(1) processes driven by given standard-normal shocks.

    Filters along the last axis, so a ``(..., n)`` stack of shock rows
    yields as many independent series in one call. Each output has
    (asymptotic) marginal standard deviation ``sigma``; its first
    sample is drawn from the stationary distribution so there is no
    burn-in transient.
    """
    if not 0.0 <= phi < 1.0:
        raise ValueError(f"phi must be in [0, 1), got {phi}")
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    innovation_scale = sigma * np.sqrt(1.0 - phi * phi)
    out = np.empty_like(innovations, dtype=float)
    if out.size == 0:
        return out
    out[..., 0] = innovations[..., 0] * sigma
    # The scaled shocks go straight into ``out``: one large temporary
    # fewer when many long series are filtered at once.
    tail = out[..., 1:]
    np.multiply(innovations[..., 1:], innovation_scale, out=tail)
    # y[t] = phi*y[t-1] + e[t] as a linear recursive filter. The
    # closed form (cumulative sum of e / phi^t) is numerically unstable
    # for long series, so this uses scipy's compiled lfilter.
    from scipy.signal import lfilter

    tail[...] = lfilter([1.0], [1.0, -phi], tail, axis=-1, zi=phi * out[..., :1])[0]
    return out


def volatility_matrix(
    calendar: HourlyCalendar,
    hubs: list[Hub],
    rng: np.random.Generator,
    config: PriceModelConfig | None = None,
) -> np.ndarray:
    """Multiplicative stochastic-volatility states, ``(n_hours, n_hubs)``.

    Each hub's volatility is ``exp(s * w_h(t) - s^2)`` where ``w_h``
    mixes a shared per-RTO log-volatility state with a local one and
    ``s`` grows with the hub's spikiness. The ``- s^2`` term normalises
    ``E[vol^2] = 1`` so multiplying the AR(1) noise by this matrix
    leaves its variance unchanged while fattening its tails.
    """
    cfg = config or PriceModelConfig()
    n = calendar.n_hours
    regional_states: dict[object, np.ndarray] = {}
    for rto in sorted({h.rto for h in hubs}, key=lambda r: r.value):
        regional_states[rto] = ar1_filter(rng.standard_normal(n), phi=cfg.sv_phi, sigma=1.0)
    loading = cfg.sv_regional_loading
    local_loading = float(np.sqrt(max(0.0, 1.0 - loading * loading)))
    out = np.empty((len(hubs), n))
    for j, hub in enumerate(hubs):
        local = ar1_filter(rng.standard_normal(n), phi=cfg.sv_phi, sigma=1.0)
        w = loading * regional_states[hub.rto] + local_loading * local
        s = cfg.sv_base + cfg.sv_spikiness_slope * hub.spikiness
        out[j] = np.exp(s * w - s * s)
    return out.T


def daily_anomaly_matrix(
    calendar: HourlyCalendar,
    hubs: list[Hub],
    rng: np.random.Generator,
    config: PriceModelConfig | None = None,
) -> np.ndarray:
    """Day-persistent peak-hour anomalies, shape ``(n_hours, n_hubs)``.

    Weather systems raise or depress a region's afternoon prices for
    several consecutive days: a per-RTO daily level follows an AR(1)
    across days and multiplies a local peak-shaped profile (zero
    overnight, one at the afternoon peak) scaled by the hub's sigma.
    """
    cfg = config or PriceModelConfig()
    n = calendar.n_hours
    n_days = (n + 23) // 24
    day_ids = np.arange(n) // 24
    levels: dict[object, np.ndarray] = {}
    for rto in sorted({h.rto for h in hubs}, key=lambda r: r.value):
        daily = ar1_filter(rng.standard_normal(n_days), phi=cfg.daily_anomaly_phi, sigma=1.0)
        levels[rto] = daily[day_ids]
    peak_shapes: dict[int, np.ndarray] = {}
    for offset in {h.utc_offset_hours for h in hubs}:
        local = calendar.local_hour_of_day(offset).astype(float)
        phase = 2 * np.pi * (local - cfg.diurnal_peak_local_hour) / 24.0
        peak_shapes[offset] = np.clip(np.cos(phase), 0.0, None)
    out = np.empty((len(hubs), n))
    for j, hub in enumerate(hubs):
        scale = hub.price_sigma * cfg.daily_anomaly_sigma_fraction
        out[j] = levels[hub.rto] * peak_shapes[hub.utc_offset_hours] * scale
    return out.T


#: Most excursion terms :func:`_add_decaying` materialises at once.
_DECAY_BLOCK_TERMS = 1 << 20


def _add_decaying(
    out: np.ndarray,
    events: list[tuple[int, int, float]],
    decay: float,
) -> None:
    """Add geometrically decaying excursions to rows of ``out`` in place.

    Event ``(row, start, magnitude)`` adds the left fold ``magnitude,
    magnitude*decay, ...`` (``np.multiply.accumulate``) to ``out[row]``
    from hour ``start``, cut before its first term with ``abs <= 1`` and
    at the end of the row. Terms are added in event order, so overlapping
    excursions sum exactly as one scalar add per event and hour would.
    """
    if not events:
        return
    n = out.shape[1]
    rows, starts, magnitudes = (np.array(column) for column in zip(*events))
    keep = np.abs(magnitudes) > 1.0
    if not keep.any():
        return
    rows, starts, magnitudes = rows[keep], starts[keep], magnitudes[keep]
    span = n
    if decay == 0.0:
        span = 1
    elif abs(decay) < 1.0:
        # |terms| shrink monotonically, so at most log|m| / log(1/|decay|)
        # + 1 of them exceed 1; one more absorbs rounding in that bound.
        peak = float(np.abs(magnitudes).max())
        span = min(n, int(math.log(peak) / -math.log(abs(decay))) + 2)
    steps = np.arange(span)
    block = max(1, _DECAY_BLOCK_TERMS // span)
    for lo in range(0, rows.size, block):
        factors = np.full((min(block, rows.size - lo), span), decay)
        factors[:, 0] = magnitudes[lo : lo + block]
        terms = np.multiply.accumulate(factors, axis=1)
        hours = starts[lo : lo + block, None] + steps
        live = np.logical_and.accumulate((np.abs(terms) > 1.0) & (hours < n), axis=1)
        owners = np.broadcast_to(rows[lo : lo + block, None], live.shape)
        np.add.at(out, (owners[live], hours[live]), terms[live])


def spike_matrix(
    calendar: HourlyCalendar,
    hubs: list[Hub],
    rng: np.random.Generator,
    config: PriceModelConfig | None = None,
) -> np.ndarray:
    """Additive spike components for a hub roster, shape ``(n_hours, n_hubs)``.

    Spike events arrive per-RTO as a Poisson process. Each event is
    either *regional* — hitting every hub in the RTO, scaled by each
    hub's spikiness with per-hub jitter — or *local* to one hub.
    Regional events are what keep same-RTO prices co-moving through
    scarcity hours; local events are the market-boundary dispersion of
    Fig. 10(e). Rare deep negative dips model §2.2's negative prices.
    """
    cfg = config or PriceModelConfig()
    n = calendar.n_hours
    out = np.zeros((len(hubs), n))

    events: list[tuple[int, int, float]] = []
    by_rto: dict[object, list[int]] = {}
    for j, hub in enumerate(hubs):
        by_rto.setdefault(hub.rto, []).append(j)

    for rto, columns in sorted(by_rto.items(), key=lambda kv: kv[0].value):
        info = RTO_INFO[rto]
        rate = info.spike_rate_per_kh * cfg.spike_rate_multiplier / 1000.0
        n_events = rng.poisson(rate * n)
        starts = rng.integers(0, n, size=n_events)
        magnitudes = cfg.spike_scale * rng.pareto(cfg.spike_alpha, size=n_events)
        regional = rng.random(n_events) < cfg.spike_regional_share
        for event in range(n_events):
            start = int(starts[event])
            magnitude = float(magnitudes[event])
            if regional[event]:
                jitters = rng.uniform(0.7, 1.3, size=len(columns))
                for jitter, j in zip(jitters.tolist(), columns):
                    scaled = min(cfg.spike_max, magnitude * hubs[j].spikiness * jitter)
                    events.append((j, start, scaled))
            else:
                j = columns[int(rng.integers(0, len(columns)))]
                scaled = min(cfg.spike_max, magnitude * hubs[j].spikiness)
                events.append((j, start, scaled))

        # Negative dips: local, rare, deep enough to cross zero.
        n_negative = rng.poisson(cfg.negative_rate_per_kh / 1000.0 * n * len(columns))
        for _ in range(n_negative):
            j = columns[int(rng.integers(0, len(columns)))]
            start = int(rng.integers(0, n))
            depth = hubs[j].mean_price * (1.0 + rng.pareto(2.5))
            events.append((j, start, -float(depth)))
    _add_decaying(out, events, cfg.spike_decay)
    return out.T


def spike_series(
    calendar: HourlyCalendar,
    hub: Hub,
    rng: np.random.Generator,
    config: PriceModelConfig | None = None,
) -> np.ndarray:
    """Spike component for a single hub (regional events degenerate to local)."""
    return spike_matrix(calendar, [hub], rng, config)[:, 0]
