"""Pluggable market-data providers: synthetic, replayed, and perturbed.

Every figure, sweep, and simulation consumes a
:class:`~repro.markets.generator.MarketDataset`; this module makes
*where that data comes from* a first-class, swappable ingredient. A
:class:`ProviderSpec` is a frozen, hashable description of a price
source — it rides on :class:`~repro.scenarios.spec.Scenario` the same
way :class:`~repro.scenarios.spec.RouterSpec` describes the policy —
and :func:`build_provider` materialises it into a live
:class:`PriceProvider` that turns a market window (start, months, seed)
into a dataset.

Three concrete providers:

``synthetic``
    Wraps :func:`~repro.markets.generator.generate_market`. This is
    the default and is bit-identical to the pre-provider pipeline, so
    existing scenarios keep their artifact hashes (the spec field is
    omitted from the content address while it holds this default).
``csv-replay``
    Replays an external hourly price CSV: column-to-hub mapping,
    timezone shift onto the simulation calendar, explicit gap policy
    (interpolate / ffill / error), validation via :mod:`repro.errors`.
``perturbed``
    Deterministic seeded transforms — price scaling, spike injection,
    hub-correlation rewiring — layered on *any* base provider, for
    stress scenario families.

Named presets (:func:`preset`) give the CLI and the scenario registry
stable handles (``repro providers list``, ``repro run --provider ...``).
"""

from __future__ import annotations

import csv
import inspect
from dataclasses import dataclass
from functools import lru_cache
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.markets.calendar import HourlyCalendar
from repro.markets.generator import MarketConfig, MarketDataset, generate_market
from repro.markets.hubs import get_hub
from repro.markets.model import PRICE_FLOOR

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.scenarios.spec import MarketSpec

__all__ = [
    "PROVIDER_KINDS",
    "GAP_POLICIES",
    "ProviderSpec",
    "SYNTHETIC",
    "PriceProvider",
    "SyntheticProvider",
    "CsvReplayProvider",
    "PerturbedProvider",
    "DatasetKey",
    "build_provider",
    "materialise_dataset",
    "preset",
    "preset_names",
    "PRESETS",
    "REPLAY_SMOKE_CSV",
]

#: Provider kinds understood by :func:`build_provider`.
PROVIDER_KINDS = ("synthetic", "csv-replay", "perturbed")

#: How a CSV replay treats missing hours.
GAP_POLICIES = ("interpolate", "ffill", "error")

#: Path prefix resolving relative to the installed ``repro`` package,
#: so packaged data files work regardless of the working directory.
_PKG_PREFIX = "pkg:"

#: The packaged two-month replay tape (nine cluster hubs, Nov-Dec 2008).
REPLAY_SMOKE_CSV = "pkg:markets/_data/replay_smoke.csv"


@dataclass(frozen=True, slots=True)
class ProviderSpec:
    """Which price source a scenario runs against, as (kind, frozen kwargs).

    Like :class:`~repro.scenarios.spec.RouterSpec`, ``params`` is a
    sorted tuple of ``(name, value)`` pairs so specs stay hashable and
    content-addressable; nested :class:`ProviderSpec` values (the
    ``perturbed`` provider's ``base``) canonicalise recursively.
    """

    kind: str = "synthetic"
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in PROVIDER_KINDS:
            raise ConfigurationError(
                f"unknown provider kind {self.kind!r}; expected one of {PROVIDER_KINDS}"
            )

    @classmethod
    def of(cls, kind: str, **params: Any) -> "ProviderSpec":
        """Build a spec in canonical (sparse) form.

        Parameters equal to the provider constructor's defaults are
        dropped, so every way of writing the same configuration —
        preset, explicit-with-defaults, provider ``.spec`` — yields one
        equal, identically-hashed spec.
        """
        sparse = {
            name: value
            for name, value in params.items()
            if not _is_default_param(kind, name, value)
        }
        return cls(kind=kind, params=tuple(sorted(sparse.items())))

    @property
    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)

    def updated(self, **params: Any) -> "ProviderSpec":
        merged = {**self.kwargs, **params}
        return ProviderSpec.of(self.kind, **merged)

    def describe(self) -> str:
        """Compact one-token rendering for tables and axis labels."""
        parts = []
        for name, value in self.params:
            if isinstance(value, ProviderSpec):
                value = value.kind
            elif isinstance(value, str) and "/" in value:
                value = value.rsplit("/", 1)[-1]
            elif isinstance(value, float):
                value = f"{value:g}"
            parts.append(f"{name}={value}")
        return f"{self.kind}({', '.join(parts)})" if parts else self.kind


@lru_cache(maxsize=None)
def _provider_defaults(kind: str) -> dict[str, Any]:
    """Constructor defaults of a provider kind (for spec normalisation)."""
    cls = _PROVIDER_CLASSES.get(kind)
    if cls is None:
        return {}
    return {
        name: parameter.default
        for name, parameter in inspect.signature(cls.__init__).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }


def _is_default_param(kind: str, name: str, value: Any) -> bool:
    defaults = _provider_defaults(kind)
    return name in defaults and defaults[name] == value


#: The default provider: the calibrated stochastic generator.
SYNTHETIC = ProviderSpec()


@runtime_checkable
class PriceProvider(Protocol):
    """Anything that can turn a market window into a price dataset.

    The contract a conforming provider owes the rest of the system:

    * **Determinism.** ``dataset`` must be a pure function of
      ``(self.spec, market)`` — same spec and window, same bits out.
      Caches, artifact hashes, and sweep replicas all assume it.
    * **Self-description.** ``spec`` is the provider's frozen,
      hashable identity (:class:`ProviderSpec`); it rides on every
      :class:`~repro.scenarios.spec.Scenario` and (except for the
      synthetic default) participates in artifact content addresses.
    * **Complete coverage.** The returned dataset must span the whole
      market window with every hub present; gap and timezone policy
      are the provider's job (see the ``csv-replay`` options), never
      the consumer's.

    Providers are registered by kind in ``_PROVIDER_CLASSES`` and
    materialised through :func:`build_provider`; user-facing presets
    live in :func:`preset` / ``repro providers list``.
    """

    spec: ProviderSpec

    def dataset(self, market: "MarketSpec") -> MarketDataset:
        """Materialise hourly prices + hub metadata for a market window."""
        ...


# -- synthetic ----------------------------------------------------------------


class SyntheticProvider:
    """The calibrated stochastic generator (the pre-provider default).

    ``dataset`` is exactly the call the scenario runner used to make,
    so a default-provider scenario is bit-identical to its
    pre-provider equivalent.
    """

    def __init__(self) -> None:
        self.spec = SYNTHETIC

    def dataset(self, market: "MarketSpec") -> MarketDataset:
        return generate_market(
            MarketConfig(start=market.start, months=market.months, seed=market.seed)
        )


# -- CSV replay ---------------------------------------------------------------


def _resolve_path(path: str) -> Path:
    if path.startswith(_PKG_PREFIX):
        import repro

        return Path(repro.__file__).resolve().parent / path[len(_PKG_PREFIX) :]
    return Path(path)


def _fill_gaps(column: np.ndarray, policy: str, label: str) -> np.ndarray:
    """Resolve NaN hours in one hub column per the explicit gap policy."""
    missing = np.isnan(column)
    if not missing.any():
        return column
    if policy == "error":
        first = int(np.argmax(missing))
        raise DataError(
            f"{label}: {int(missing.sum())} missing hour(s) (first at index {first}) "
            "and gap_policy='error'"
        )
    observed = np.flatnonzero(~missing)
    if observed.size == 0:
        raise DataError(f"{label}: no observations at all")
    if policy == "interpolate":
        hours = np.arange(column.size, dtype=float)
        return np.interp(hours, observed.astype(float), column[observed])
    # ffill: repeat the previous observation; leading gaps take the first.
    last_seen = np.maximum.accumulate(np.where(missing, -1, np.arange(column.size)))
    last_seen = np.where(last_seen < 0, observed[0], last_seen)
    return column[last_seen]


class CsvReplayProvider:
    """Replay an external hourly price CSV onto the simulation calendar.

    Parameters
    ----------
    path:
        CSV file path; the ``pkg:`` prefix resolves relative to the
        installed ``repro`` package (for shipped example tapes).
    time_column:
        Header of the timestamp column (ISO-8601 wall-clock hours).
    hub_columns:
        Optional tuple of ``(csv_column, hub_code)`` pairs mapping CSV
        headers to registry hubs. Empty means every non-time column *is*
        a hub code.
    utc_offset_hours:
        Offset of the CSV's timestamps east of the simulation's
        UTC-convention calendar; stamps are shifted by ``-offset`` so a
        feed exported in local market time lands on the right hour.
    gap_policy:
        ``interpolate`` (linear over observed hours, clamped at the
        edges), ``ffill`` (previous observation, leading gaps take the
        first), or ``error`` (any missing hour is a :class:`DataError`).
    min_coverage:
        Minimum fraction of the market window each hub must actually
        observe before the gap policy fills the rest; below it the
        provider raises :class:`DataError` rather than extrapolate a
        short tape across a long window. 0 (the default) only requires
        *some* observation per hub — pair a lenient gap policy with a
        floor (e.g. ``0.9``) when fabricated edges would be misleading.

    The replayed matrix serves as both the real-time and the day-ahead
    feed (external tapes carry one series); hub metadata, five-minute
    expansion, and lagged views all work as with generated data.
    """

    def __init__(
        self,
        path: str,
        time_column: str = "timestamp",
        hub_columns: tuple[tuple[str, str], ...] = (),
        utc_offset_hours: int = 0,
        gap_policy: str = "interpolate",
        min_coverage: float = 0.0,
    ) -> None:
        if not path:
            raise ConfigurationError("csv-replay provider needs a path")
        if gap_policy not in GAP_POLICIES:
            raise ConfigurationError(
                f"unknown gap policy {gap_policy!r}; expected one of {GAP_POLICIES}"
            )
        if not 0.0 <= min_coverage <= 1.0:
            raise ConfigurationError(f"min_coverage must be in [0, 1], got {min_coverage}")
        self.path = path
        self.time_column = time_column
        self.hub_columns = tuple((str(c), str(h)) for c, h in hub_columns)
        self.utc_offset_hours = int(utc_offset_hours)
        self.gap_policy = gap_policy
        self.min_coverage = float(min_coverage)
        self.spec = ProviderSpec.of(
            "csv-replay",
            path=path,
            time_column=time_column,
            hub_columns=self.hub_columns,
            utc_offset_hours=self.utc_offset_hours,
            gap_policy=gap_policy,
            min_coverage=self.min_coverage,
        )

    def _read_rows(self, resolved: Path) -> tuple[list[str], list[list[str]]]:
        try:
            with open(resolved, newline="") as fh:
                reader = csv.reader(fh)
                try:
                    header = next(reader)
                except StopIteration:
                    raise DataError(f"{resolved}: empty CSV") from None
                return [h.strip() for h in header], list(reader)
        except OSError as exc:
            raise DataError(f"cannot read price CSV {resolved}: {exc}") from exc

    def dataset(self, market: "MarketSpec") -> MarketDataset:
        resolved = _resolve_path(self.path)
        header, rows = self._read_rows(resolved)
        if self.time_column not in header:
            raise DataError(
                f"{resolved}: no {self.time_column!r} column (columns: {', '.join(header)})"
            )
        time_idx = header.index(self.time_column)

        if self.hub_columns:
            missing = [c for c, _ in self.hub_columns if c not in header]
            if missing:
                raise DataError(f"{resolved}: mapped column(s) not in CSV: {', '.join(missing)}")
            mapping = [(header.index(c), hub_code) for c, hub_code in self.hub_columns]
        else:
            mapping = [(i, name) for i, name in enumerate(header) if i != time_idx]
        if not mapping:
            raise DataError(f"{resolved}: no hub columns")
        hubs = [get_hub(code) for _, code in mapping]  # UnknownHubError on bad codes
        codes = tuple(h.code for h in hubs)

        calendar = HourlyCalendar.for_months(market.start, market.months)
        shift = timedelta(hours=-self.utc_offset_hours)
        matrix = np.full((calendar.n_hours, len(hubs)), np.nan)
        seen = np.zeros(calendar.n_hours, dtype=bool)
        for lineno, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{resolved}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                stamp = datetime.fromisoformat(row[time_idx].strip())
            except ValueError as exc:
                raise DataError(f"{resolved}:{lineno}: bad timestamp {row[time_idx]!r}") from exc
            if stamp.tzinfo is not None:
                # An aware stamp carries its own offset, which wins over
                # utc_offset_hours (that parameter describes naive tapes).
                stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
            else:
                stamp = stamp + shift
            if stamp.minute or stamp.second or stamp.microsecond:
                raise DataError(f"{resolved}:{lineno}: timestamp {stamp} not on an hour boundary")
            if not calendar.start <= stamp < calendar.end:
                continue  # tapes may be longer than the simulated window
            index = calendar.index_of(stamp)
            if seen[index]:
                raise DataError(f"{resolved}:{lineno}: duplicate hour {stamp}")
            seen[index] = True
            for j, (col, _) in enumerate(mapping):
                text = row[col].strip()
                if not text or text.lower() == "nan":
                    continue
                try:
                    matrix[index, j] = float(text)
                except ValueError as exc:
                    raise DataError(f"{resolved}:{lineno}: bad price {text!r}") from exc

        for j, code in enumerate(codes):
            coverage = float(np.mean(~np.isnan(matrix[:, j])))
            if coverage < self.min_coverage:
                raise DataError(
                    f"{resolved} hub {code}: tape covers {coverage:.1%} of the "
                    f"{calendar.n_hours}h market window (< min_coverage "
                    f"{self.min_coverage:.1%})"
                )
            matrix[:, j] = _fill_gaps(matrix[:, j], self.gap_policy, f"{resolved} hub {code}")
        if not np.isfinite(matrix).all():
            raise DataError(f"{resolved}: non-finite prices after gap filling")

        config = MarketConfig(
            start=market.start, months=market.months, hub_codes=codes, seed=market.seed
        )
        return MarketDataset(config, calendar, hubs, matrix, matrix.copy())


# -- perturbed ----------------------------------------------------------------


class PerturbedProvider:
    """Deterministic seeded stress transforms over any base provider.

    Transforms are applied in a fixed order — scaling, correlation
    rewiring, spike injection — and every random draw comes from one
    :class:`numpy.random.SeedSequence` keyed on (provider seed, market
    seed, calendar length), so a perturbed dataset is reproducible
    across processes and platforms.

    Parameters
    ----------
    base:
        The provider spec whose dataset is perturbed (default synthetic).
    scale:
        Multiplies all prices (both feeds); models sustained fuel-cost
        shifts.
    decorrelate:
        In ``[0, 1]``: blend weight of a per-hub time rotation of the
        price series. 0 keeps the base correlation structure; 1 rewires
        the cross-hub alignment away entirely while leaving every hub's
        marginal distribution untouched (a pure rotation).
    spike_rate:
        Per-hour, per-hub probability of an injected price spike.
    spike_magnitude:
        Spike size in multiples of the hub's calibrated sigma (scaled by
        an exponential draw, so injected tails are heavy).
    seed:
        Perturbation seed; independent of the base dataset's seed.
    """

    def __init__(
        self,
        base: ProviderSpec = SYNTHETIC,
        scale: float = 1.0,
        decorrelate: float = 0.0,
        spike_rate: float = 0.0,
        spike_magnitude: float = 6.0,
        seed: int = 0,
    ) -> None:
        if not isinstance(base, ProviderSpec):
            raise ConfigurationError("perturbed base must be a ProviderSpec")
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        if not 0.0 <= decorrelate <= 1.0:
            raise ConfigurationError(f"decorrelate must be in [0, 1], got {decorrelate}")
        if not 0.0 <= spike_rate < 0.5:
            raise ConfigurationError(f"spike_rate must be in [0, 0.5), got {spike_rate}")
        if spike_magnitude < 0:
            raise ConfigurationError("spike_magnitude must be non-negative")
        self.base = base
        self.scale = float(scale)
        self.decorrelate = float(decorrelate)
        self.spike_rate = float(spike_rate)
        self.spike_magnitude = float(spike_magnitude)
        self.seed = int(seed)
        self.spec = ProviderSpec.of(
            "perturbed",
            base=base,
            scale=self.scale,
            decorrelate=self.decorrelate,
            spike_rate=self.spike_rate,
            spike_magnitude=self.spike_magnitude,
            seed=self.seed,
        )

    def dataset(self, market: "MarketSpec") -> MarketDataset:
        base_ds = materialise_dataset(market, self.base)
        n, m = base_ds.price_matrix.shape
        rng = np.random.default_rng(
            np.random.SeedSequence([0x5EED, self.seed, market.seed, n])
        )
        real_time = base_ds.price_matrix * self.scale
        day_ahead = base_ds.day_ahead_matrix * self.scale

        if self.decorrelate > 0.0 and n > 1:
            # Rotate each hub's series in time by its own seeded offset:
            # at 1.0 every marginal distribution is untouched (a pure
            # rotation) while the cross-hub alignment — seasonal, diurnal,
            # and shock — that correlation measures is rewired away.
            offsets = rng.integers(1, n, size=m)
            rolled = np.empty_like(real_time)
            for j in range(m):
                rolled[:, j] = np.roll(real_time[:, j], int(offsets[j]))
            real_time = (1.0 - self.decorrelate) * real_time + self.decorrelate * rolled

        if self.spike_rate > 0.0 and self.spike_magnitude > 0.0:
            mask = rng.random((n, m)) < self.spike_rate
            amplitudes = rng.exponential(1.0, size=(n, m))
            sigmas = np.array([h.price_sigma for h in base_ds.hubs]) * self.scale
            real_time = real_time + mask * (self.spike_magnitude * sigmas[None, :] * amplitudes)

        real_time = np.maximum(PRICE_FLOOR, real_time)
        day_ahead = np.maximum(PRICE_FLOOR, day_ahead)
        return MarketDataset(base_ds.config, base_ds.calendar, base_ds.hubs, real_time, day_ahead)


# -- construction and presets -------------------------------------------------

_PROVIDER_CLASSES = {
    "synthetic": SyntheticProvider,
    "csv-replay": CsvReplayProvider,
    "perturbed": PerturbedProvider,
}


def build_provider(spec: ProviderSpec) -> PriceProvider:
    """Materialise a provider spec into a live provider."""
    cls = _PROVIDER_CLASSES[spec.kind]
    try:
        return cls(**spec.kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"bad parameters for provider {spec.kind!r}: {exc}") from exc


@dataclass(frozen=True, slots=True)
class DatasetKey:
    """Content address of a materialised data set: the window + source.

    Providers owe determinism — ``dataset`` is a pure function of
    ``(spec, market)`` — so this pair *is* the dataset's identity, and
    two processes (or shards, or reruns) asking for the same pair can
    share one materialisation through the artifact store.
    """

    market: "MarketSpec"
    provider: ProviderSpec


def materialise_dataset(market: "MarketSpec", provider: ProviderSpec) -> MarketDataset:
    """Build a provider's dataset through the content-addressed disk cache.

    With no artifact store active this is exactly
    ``build_provider(provider).dataset(market)``. With a store, the
    dataset is looked up under its :class:`DatasetKey` digest first and
    published after a build, so a :class:`PerturbedProvider` stack —
    which routes its base through this function — reuses its base's
    materialised dataset across processes, shards, and reruns instead
    of regenerating it per worker. Refresh mode (``--force``) skips the
    read but still publishes, like every other artifact kind; configs
    the codec refuses (non-default price/correlation models) simply
    bypass the cache.

    Raises
    ------
    ConfigurationError
        If any real-time or day-ahead price is NaN (``inf`` is legal):
        a NaN price makes no cluster cheapest, so the routers would
        place demand outside their candidate sets.
    """
    from repro import artifacts  # runtime import: artifacts sits above markets

    store = artifacts.get_store()
    if store is None:
        return _refuse_nan_prices(build_provider(provider).dataset(market))
    key = artifacts.keyed(DatasetKey(market=market, provider=provider))
    if not artifacts.refresh_mode():
        payload = store.load(artifacts.KIND_DATASET, key)
        if payload is not None:
            try:
                dataset = artifacts.decode_market_dataset(payload)
            except (KeyError, ValueError, TypeError):
                pass  # unreadable record: fall through and rebuild
            else:
                return _refuse_nan_prices(dataset)
    dataset = _refuse_nan_prices(build_provider(provider).dataset(market))
    encoded = artifacts.encode_market_dataset(dataset)
    if encoded is not None:
        store.save(artifacts.KIND_DATASET, key, encoded)
    return dataset


def _refuse_nan_prices(dataset: MarketDataset) -> MarketDataset:
    """``dataset``, once neither of its price matrices holds a NaN."""
    for label, matrix in (
        ("real-time", dataset.price_matrix),
        ("day-ahead", dataset.day_ahead_matrix),
    ):
        nan = np.isnan(matrix)
        if nan.any():
            hour, column = (int(i) for i in np.argwhere(nan)[0])
            raise ConfigurationError(
                f"{label} price of hub {dataset.hub_codes[column]} is NaN at hour {hour} "
                f"({dataset.calendar.datetime_at(hour):%Y-%m-%d %H:00})"
            )
    return dataset


@dataclass(frozen=True, slots=True)
class ProviderPreset:
    """A named, documented provider configuration."""

    name: str
    spec: ProviderSpec
    description: str


def _builtin_presets() -> tuple[ProviderPreset, ...]:
    replay = ProviderSpec.of("csv-replay", path=REPLAY_SMOKE_CSV)
    return (
        ProviderPreset(
            name="synthetic",
            spec=SYNTHETIC,
            description="calibrated stochastic generator (the default)",
        ),
        ProviderPreset(
            name="replay-smoke",
            spec=replay,
            description="replayed hourly CSV tape: nine cluster hubs, Nov-Dec 2008",
        ),
        ProviderPreset(
            name="spiky-markets",
            spec=ProviderSpec.of("perturbed", spike_rate=0.004, spike_magnitude=6.0, seed=11),
            description="synthetic base with heavy seeded price-spike injection",
        ),
        ProviderPreset(
            name="decorrelated-rtos",
            spec=ProviderSpec.of("perturbed", decorrelate=1.0, seed=13),
            description="synthetic base with the hub correlation structure rewired away",
        ),
        ProviderPreset(
            name="replay-stress",
            spec=ProviderSpec.of(
                "perturbed",
                base=replay,
                scale=1.25,
                spike_rate=0.01,
                spike_magnitude=4.0,
                seed=17,
            ),
            description="stressed replay: the CSV tape scaled 1.25x with injected spikes",
        ),
    )


PRESETS: dict[str, ProviderPreset] = {p.name: p for p in _builtin_presets()}


def preset(name: str) -> ProviderPreset:
    """Fetch a named provider preset."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ConfigurationError(f"unknown provider {name!r}; available: {known}") from None


def preset_names() -> tuple[str, ...]:
    """Registered provider preset names, sorted."""
    return tuple(sorted(PRESETS))
