"""Content-addressed on-disk artifact store.

Layout (one file per artifact, addressed by its spec's hash)::

    <root>/
      simulations/<sha256>.json   # SimulationResult keyed on Scenario (not campaigns')
      figures/<sha256>.json       # FigureResult keyed on FigureSpec
      sweeps/<sha256>.json        # SweepResult keyed on SweepSpec
      datasets/<sha256>.json      # MarketDataset keyed on (market, provider)
      sessions/<sha256>.json      # serving checkpoints (banked windows)
      campaigns/<sha256>/         # checkpointed sweep groups keyed on
        manifest.json             #   (SweepSpec, group_target); one file
        group-<i>.json            #   per banked work group

A record is one JSON header line followed by the raw little-endian
bytes of its arrays::

    {"format":3,"kind":"datasets","spec":{...},"payload":{...}}\n
    <array bytes, each padded to 8 bytes>

The header carries the canonical spec document next to the payload, so
entries are self-describing: ``repro list``, ``repro store status`` and
``repro diff`` can tell what a file is from its first line alone,
without re-deriving its key or reading its arrays. Every
:class:`numpy.ndarray` in a saved payload is replaced in the header by
``{"__array__": {dtype, shape, offset, nbytes}}`` and its bytes go to
the tail; :meth:`ArtifactStore.load` hands them back as read-only
``np.frombuffer`` views of the bytes it read. Records without arrays
(figures, sweeps) are the header line alone. A stale format, a corrupt
header or a truncated tail reads as a miss, never as an error.

Writes are atomic (temp file + ``os.replace`` in the same directory),
which is what makes the store safe under the process-pool executor:
two workers racing to publish the same scenario both write identical
bytes and the last rename wins. A writer killed mid-write leaves only
its ``*.tmp`` file, which :meth:`ArtifactStore.clear` removes.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.artifacts.codec import (
    FORMAT_VERSION,
    decode_simulation_result,
    encode_simulation_result,
    keyed,
)
from repro.errors import ConfigurationError
from repro.sim.results import SimulationResult

__all__ = [
    "ArtifactStore",
    "StoreEntry",
    "KIND_SIMULATION",
    "KIND_FIGURE",
    "KIND_SWEEP",
    "KIND_DATASET",
    "KIND_CAMPAIGN",
    "KIND_SESSION",
    "write_atomic",
    "remove_records",
]

KIND_SIMULATION = "simulations"
KIND_FIGURE = "figures"
KIND_SWEEP = "sweeps"
KIND_DATASET = "datasets"

#: Serving checkpoints: a rolling session's banked window results,
#: addressed by the serving spec (scenario, window size, shard).
KIND_SESSION = "sessions"

#: Campaign checkpoints live one *directory* per key (a manifest plus a
#: file per banked group), unlike the flat one-file-per-artifact kinds.
KIND_CAMPAIGN = "campaigns"

_KINDS = (KIND_SIMULATION, KIND_FIGURE, KIND_SWEEP, KIND_DATASET, KIND_SESSION)

#: Every array in a record's tail starts on this byte boundary.
_ALIGN = 8


@dataclass(frozen=True)
class StoreEntry:
    """One artifact on disk, as surfaced by :meth:`ArtifactStore.entries`."""

    kind: str
    key: str
    path: Path
    spec: Any
    size_bytes: int
    mtime: float = 0.0


def write_atomic(path: Path, chunks: Iterable[Any]) -> None:
    """Publish the concatenated bytes of ``chunks`` at ``path``, atomically."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def remove_records(directory: Path) -> int:
    """Delete ``directory``'s records and orphaned temp files; count them."""
    removed = 0
    for path in [*directory.glob("*.json"), *directory.glob("*.tmp")]:
        path.unlink(missing_ok=True)
        removed += 1
    return removed


class _Tail:
    """The raw array bytes of one record, gathered while its header is built."""

    def __init__(self) -> None:
        self.chunks: list[Any] = []
        self.size = 0

    def lift(self, value: Any) -> Any:
        """``value`` with every ndarray swapped for its tail descriptor."""
        if isinstance(value, np.ndarray):
            return self._append(value)
        if isinstance(value, dict):
            return {k: self.lift(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [self.lift(v) for v in value]
        return value

    def _append(self, arr: np.ndarray) -> dict:
        if arr.dtype.hasobject:
            raise ConfigurationError("cannot store an object array in an artifact")
        arr = np.asarray(arr, dtype=arr.dtype.newbyteorder("<"), order="C")
        descriptor = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": self.size,
            "nbytes": arr.nbytes,
        }
        if arr.nbytes:
            self.chunks.append(memoryview(arr).cast("B"))
        pad = -arr.nbytes % _ALIGN
        if pad:
            self.chunks.append(bytes(pad))
        self.size += arr.nbytes + pad
        return {"__array__": descriptor}


def _restore(value: Any, tail: bytes) -> Any:
    """Inverse of :meth:`_Tail.lift`: read-only array views of ``tail``."""
    if isinstance(value, dict):
        descriptor = value.get("__array__")
        if descriptor is None:
            return {k: _restore(v, tail) for k, v in value.items()}
        dtype = np.dtype(descriptor["dtype"])
        offset, nbytes = int(descriptor["offset"]), int(descriptor["nbytes"])
        if offset < 0 or offset + nbytes > len(tail):
            raise ValueError("record tail is truncated")
        count = nbytes // dtype.itemsize
        return np.frombuffer(tail, dtype=dtype, count=count, offset=offset).reshape(
            descriptor["shape"]
        )
    if isinstance(value, list):
        return [_restore(v, tail) for v in value]
    return value


def _read_header(fh: Any) -> dict | None:
    """A record's parsed header line, or None when it is not one."""
    header = json.loads(fh.readline())
    return header if isinstance(header, dict) else None


class ArtifactStore:
    """Persistent, content-addressed cache of simulation and figure runs."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- raw record access ----------------------------------------------------

    def path_for(self, kind: str, spec: Any) -> Path:
        if kind not in _KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        return self.root / kind / f"{keyed(spec).key}.json"

    def save(self, kind: str, spec: Any, payload: Any) -> Path:
        """Atomically publish ``payload`` under ``spec``'s address.

        ``spec`` may be a :class:`~repro.artifacts.codec.KeyedSpec`, so
        a lookup and the publish after it canonicalise the spec once.
        """
        spec = keyed(spec)
        path = self.path_for(kind, spec)
        tail = _Tail()
        body = json.dumps(tail.lift(payload), separators=(",", ":"))
        header = (
            f'{{"format":{FORMAT_VERSION},"kind":{json.dumps(kind)},'
            f'"spec":{spec.document},"payload":{body}}}\n'
        )
        write_atomic(path, [header.encode("utf-8"), *tail.chunks])
        return path

    def load(self, kind: str, spec: Any) -> Any | None:
        """The payload stored under ``spec``, or None on miss/mismatch."""
        path = self.path_for(kind, spec)
        try:
            with open(path, "rb") as fh:
                header = _read_header(fh)
                if (
                    header is None
                    or header.get("format") != FORMAT_VERSION
                    or header.get("kind") != kind
                ):
                    return None
                return _restore(header.get("payload"), fh.read())
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError):
            return None  # corrupt header or truncated tail: a miss

    def has(self, kind: str, spec: Any) -> bool:
        return self.path_for(kind, spec).exists()

    # -- campaign checkpoints (directory-per-key kind) ------------------------

    def campaign_dir(self, key: str) -> Path:
        """The checkpoint directory for one campaign key (may not exist)."""
        return self.root / KIND_CAMPAIGN / key

    def campaign_dirs(self) -> Iterator[Path]:
        """Existing campaign checkpoint directories, sorted by key."""
        root = self.root / KIND_CAMPAIGN
        if not root.is_dir():
            return
        yield from sorted(p for p in root.iterdir() if p.is_dir())

    def entries(self) -> Iterator[StoreEntry]:
        """Every readable artifact under the root, sorted per kind.

        Only each record's header line is read, never its arrays.
        """
        for kind in _KINDS:
            directory = self.root / kind
            if not directory.is_dir():
                continue
            for path in sorted(directory.glob("*.json")):
                try:
                    with open(path, "rb") as fh:
                        header = _read_header(fh)
                    stat = path.stat()
                except (OSError, ValueError):
                    continue
                if header is None:
                    continue
                yield StoreEntry(
                    kind=kind,
                    key=path.stem,
                    path=path,
                    spec=header.get("spec"),
                    size_bytes=stat.st_size,
                    mtime=stat.st_mtime,
                )
        for directory in self.campaign_dirs():
            manifest = directory / "manifest.json"
            try:
                with open(manifest, "rb") as fh:
                    record = _read_header(fh)
                stats = [p.stat() for p in directory.glob("*.json")]
            except (OSError, ValueError):
                continue
            if record is None:
                continue
            yield StoreEntry(
                kind=KIND_CAMPAIGN,
                key=directory.name,
                path=manifest,
                spec=record.get("spec"),
                size_bytes=sum(st.st_size for st in stats),
                mtime=max((st.st_mtime for st in stats), default=0.0),
            )

    def clear(self) -> int:
        """Delete every artifact and orphaned temp file; returns the count."""
        removed = sum(remove_records(self.root / kind) for kind in _KINDS)
        for directory in list(self.campaign_dirs()):
            removed += remove_records(directory)
            try:
                directory.rmdir()
            except OSError:
                pass
        return removed

    # -- typed conveniences ---------------------------------------------------

    def load_simulation(self, scenario: Any) -> SimulationResult | None:
        payload = self.load(KIND_SIMULATION, scenario)
        if payload is None:
            return None
        return decode_simulation_result(payload)

    def save_simulation(self, scenario: Any, result: SimulationResult) -> Path:
        return self.save(KIND_SIMULATION, scenario, encode_simulation_result(result))

    def load_figure(self, figure_spec: Any) -> dict | None:
        payload = self.load(KIND_FIGURE, figure_spec)
        return payload if isinstance(payload, dict) else None

    def save_figure(self, figure_spec: Any, figure_payload: dict) -> Path:
        return self.save(KIND_FIGURE, figure_spec, figure_payload)
