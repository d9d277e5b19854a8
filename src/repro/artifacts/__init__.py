"""Persistent experiment artifacts: the cross-process memo layer.

The in-process run memo in :mod:`repro.scenarios.runner`
evaporates when a process exits, so a twenty-figure sweep re-simulates
everything in every worker. This package adds the durable layer
beneath it: a content-addressed on-disk store keyed on frozen
:class:`~repro.scenarios.spec.Scenario` and figure specs, holding
bit-identical :class:`~repro.sim.results.SimulationResult` payloads
and JSON figure artifacts. Records are a JSON header line followed by
the raw bytes of their arrays (see :mod:`repro.artifacts.store`).

Activation
----------
The store is *opt-in* for library use so imports and tests stay free
of filesystem side effects:

- the ``repro`` CLI activates it (default directory ``.repro-artifacts``),
- setting ``REPRO_ARTIFACT_DIR`` activates it for any process — this is
  how pool workers inherit the parent's store,
- :func:`configure` activates (or disables, with ``None``) it
  programmatically.

:func:`get_store` returns the active store or ``None``; callers treat
``None`` as "memoise in memory only".
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.artifacts.codec import (
    KeyedSpec,
    canonical,
    canonical_json,
    decode_array,
    decode_market_dataset,
    decode_simulation_result,
    decode_value,
    encode_array,
    encode_market_dataset,
    encode_simulation_result,
    encode_value,
    keyed,
    spec_key,
)
from repro.artifacts.store import (
    KIND_CAMPAIGN,
    KIND_DATASET,
    KIND_FIGURE,
    KIND_SESSION,
    KIND_SIMULATION,
    KIND_SWEEP,
    ArtifactStore,
    StoreEntry,
)

__all__ = [
    "ArtifactStore",
    "StoreEntry",
    "KIND_FIGURE",
    "KIND_SIMULATION",
    "KIND_SWEEP",
    "KIND_DATASET",
    "KIND_CAMPAIGN",
    "KIND_SESSION",
    "DEFAULT_STORE_DIR",
    "ENV_STORE_DIR",
    "configure",
    "reset",
    "get_store",
    "active_root",
    "set_refresh",
    "refresh_mode",
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

#: Environment variable naming the store directory (workers inherit it).
ENV_STORE_DIR = "REPRO_ARTIFACT_DIR"

#: Where the CLI keeps artifacts unless told otherwise.
DEFAULT_STORE_DIR = ".repro-artifacts"

#: Sentinel distinguishing "never configured" from "explicitly disabled".
_UNSET = object()

_configured: object = _UNSET

_refresh = False


def configure(root: str | Path | None) -> ArtifactStore | None:
    """Set the process-wide store (``None`` disables it explicitly)."""
    global _configured
    _configured = ArtifactStore(root) if root is not None else None
    return _configured  # type: ignore[return-value]


def reset() -> None:
    """Forget any explicit configuration; fall back to the environment."""
    global _configured, _refresh
    _configured = _UNSET
    _refresh = False


def set_refresh(enabled: bool) -> None:
    """Toggle refresh mode: stored results are overwritten, never read.

    This is how ``--force`` reaches the *simulation* layer: the layered
    cache in :mod:`repro.scenarios.runner` skips its disk lookup while
    refresh is on (it still publishes fresh results), so a forced run
    cannot be satisfied by artifacts computed before a code change.
    """
    global _refresh
    _refresh = bool(enabled)


def refresh_mode() -> bool:
    """True while stored artifacts must be recomputed rather than read."""
    return _refresh


def get_store() -> ArtifactStore | None:
    """The active artifact store, or ``None`` when persistence is off.

    Explicit :func:`configure` wins; otherwise ``REPRO_ARTIFACT_DIR``
    in the environment activates a store at that path.
    """
    if _configured is not _UNSET:
        return _configured  # type: ignore[return-value]
    env_root = os.environ.get(ENV_STORE_DIR)
    if env_root:
        return ArtifactStore(env_root)
    return None


def active_root() -> Path | None:
    """The active store's root directory, or ``None`` when disabled."""
    store = get_store()
    return store.root if store is not None else None
