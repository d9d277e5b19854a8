"""Codecs for artifacts: frozen specs in, bit-identical values out.

Three layers, each building on the one below:

``canonical``
    Turns a frozen spec (any :mod:`dataclasses` dataclass, datetimes,
    numpy scalars, tuples) into a plain, deterministic JSON document.
    Dataclasses are tagged with their class name so two spec types
    whose fields happen to coincide never collide.
``spec_key`` / ``keyed``
    SHA-256 of the canonical document — the content address a spec's
    artifact is stored under. :func:`keyed` computes the document and
    its address once, so a store lookup followed by a publish of the
    same spec does not canonicalise it twice.
``encode_* / decode_*``
    Lossless value codecs. Simulation results and market data sets
    encode to plain payloads that hold raw :class:`numpy.ndarray`
    values; the store frames those arrays as raw bytes after the
    record's JSON header (see :mod:`repro.artifacts.store`), so a
    decoded :class:`SimulationResult` is bit-identical to the one that
    was written — the property the golden-figure regression gate rests
    on. Figure documents (and the committed goldens) are plain JSON,
    and their arrays travel as base64 of the raw bytes plus dtype and
    shape (:func:`encode_array`).
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
from datetime import datetime
from typing import Any

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.results import SimulationResult

__all__ = [
    "OMIT_DEFAULT",
    "canonical",
    "canonical_json",
    "spec_key",
    "KeyedSpec",
    "keyed",
    "encode_array",
    "decode_array",
    "encode_value",
    "decode_value",
    "encode_simulation_result",
    "decode_simulation_result",
    "encode_market_dataset",
    "decode_market_dataset",
]

#: Bump when the on-disk encoding changes shape — or when simulation
#: semantics change (so stale stores become clean cache misses rather
#: than serving pre-change results). 2: "lower" billing percentile and
#: the unclamped joint-router congestion ramp. 3: records are a JSON
#: header line followed by the raw bytes of their arrays.
FORMAT_VERSION = 3

#: Field-metadata flag: omit the field from the canonical document when
#: it still holds its declared default. This is how a spec can *grow* a
#: field (``Scenario.provider``) without changing the content address of
#: every artifact written before the field existed.
OMIT_DEFAULT = "artifact_omit_default"

_MISSING = dataclasses.MISSING


# -- canonical spec documents -------------------------------------------------


def _holds_default(field: dataclasses.Field, value: Any) -> bool:
    if field.default is not _MISSING:
        return bool(value == field.default)
    if field.default_factory is not _MISSING:
        return bool(value == field.default_factory())
    return False


def canonical(obj: Any) -> Any:
    """A plain, deterministic JSON-able view of a frozen spec."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not (f.metadata.get(OMIT_DEFAULT) and _holds_default(f, getattr(obj, f.name)))
        }
        return {"__spec__": type(obj).__name__, **fields}
    if isinstance(obj, datetime):
        return {"__datetime__": obj.isoformat()}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, (tuple, list)):
        return [canonical(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ConfigurationError(f"cannot canonicalise {type(obj).__name__!r} into an artifact key")


def canonical_json(obj: Any) -> str:
    """The canonical document as compact, key-sorted JSON."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def spec_key(obj: Any) -> str:
    """Content address of a spec: SHA-256 of its canonical JSON."""
    return keyed(obj).key


@dataclasses.dataclass(frozen=True, slots=True)
class KeyedSpec:
    """A spec's canonical JSON document and its content address."""

    document: str
    key: str


def keyed(obj: Any) -> KeyedSpec:
    """``obj``'s document and address, computed once (a no-op when keyed)."""
    if isinstance(obj, KeyedSpec):
        return obj
    document = canonical_json(obj)
    return KeyedSpec(document, hashlib.sha256(document.encode("utf-8")).hexdigest())


# -- arrays -------------------------------------------------------------------


def encode_array(arr: np.ndarray) -> dict:
    """Lossless array encoding: dtype + shape + base64 raw bytes."""
    arr = np.ascontiguousarray(arr)
    return {
        "__ndarray__": {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii"),
        }
    }


def decode_array(obj: dict) -> np.ndarray:
    spec = obj["__ndarray__"]
    raw = base64.b64decode(spec["data"])
    return np.frombuffer(raw, dtype=np.dtype(spec["dtype"])).reshape(spec["shape"])


# -- general values (figure rows, notes, summaries) ---------------------------


def encode_value(value: Any) -> Any:
    """JSON encoding for heterogeneous figure data (rows, series)."""
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, datetime):
        return {"__datetime__": value.isoformat()}
    if isinstance(value, (tuple, list)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(f"cannot encode {type(value).__name__!r} into an artifact")


def decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return decode_array(value)
        if "__datetime__" in value:
            return datetime.fromisoformat(value["__datetime__"])
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


# -- simulation results -------------------------------------------------------


def encode_simulation_result(result: SimulationResult) -> dict:
    """A store payload: scalar fields plus the result's raw arrays."""
    return {
        "start": result.start.isoformat(),
        "step_seconds": result.step_seconds,
        "cluster_labels": list(result.cluster_labels),
        "capacities": result.capacities,
        "server_counts": result.server_counts,
        "loads": result.loads,
        "paid_prices": result.paid_prices,
        "distance_histogram": result.distance_profile.histogram,
    }


def decode_simulation_result(payload: dict) -> SimulationResult:
    return SimulationResult(
        start=datetime.fromisoformat(payload["start"]),
        step_seconds=int(payload["step_seconds"]),
        cluster_labels=tuple(payload["cluster_labels"]),
        capacities=payload["capacities"],
        server_counts=payload["server_counts"],
        loads=payload["loads"],
        paid_prices=payload["paid_prices"],
        distance_histogram=payload["distance_histogram"],
    )


# -- market datasets ----------------------------------------------------------


def encode_market_dataset(dataset: Any) -> dict | None:
    """Lossless encoding of a materialised market data set, or ``None``.

    Only configs whose price model and correlation model still hold
    their defaults are encodable — those sub-configs are rebuilt from
    defaults on decode rather than serialised, which keeps the payload
    to the scalar config fields plus the two raw price matrices. Every
    current provider satisfies this; a future custom-model config
    simply opts out of the disk cache (``None`` means "don't cache").
    """
    from repro.markets.correlation import CorrelationModel
    from repro.markets.model import PriceModelConfig

    config = dataset.config
    if config.model != PriceModelConfig() or config.correlation != CorrelationModel():
        return None
    return {
        "start": config.start.isoformat(),
        "months": config.months,
        "hub_codes": list(config.hub_codes),
        "seed": config.seed,
        "day_ahead_premium": config.day_ahead_premium,
        "five_minute_sigma_fraction": config.five_minute_sigma_fraction,
        "real_time": dataset.price_matrix,
        "day_ahead": dataset.day_ahead_matrix,
    }


def decode_market_dataset(payload: dict) -> Any:
    """Rebuild a :class:`MarketDataset` bit-identical to the encoded one.

    The config is reconstructed from its scalar fields (model and
    correlation from defaults — :func:`encode_market_dataset` refuses
    anything else), so derived views like the seeded five-minute
    series reproduce exactly.
    """
    from repro.markets.calendar import HourlyCalendar
    from repro.markets.generator import MarketConfig, MarketDataset
    from repro.markets.hubs import get_hub

    config = MarketConfig(
        start=datetime.fromisoformat(payload["start"]),
        months=int(payload["months"]),
        hub_codes=tuple(payload["hub_codes"]),
        seed=int(payload["seed"]),
        day_ahead_premium=float(payload["day_ahead_premium"]),
        five_minute_sigma_fraction=float(payload["five_minute_sigma_fraction"]),
    )
    calendar = HourlyCalendar.for_months(config.start, config.months)
    hubs = [get_hub(code) for code in config.hub_codes]
    return MarketDataset(
        config,
        calendar,
        hubs,
        payload["real_time"],
        payload["day_ahead"],
    )
