"""Campaign checkpoints: bank completed groups, resume byte-identically.

A campaign that dies at group 4 000 of 6 250 should not restart from
zero. This layer banks every completed :class:`~repro.sweeps.planner.WorkGroup`
as one JSON file under the artifact store's ``campaigns/`` kind, keyed
on ``spec_key(CampaignKey(spec, group_target))`` — the partition is a
pure function of that pair, so a banked group index means the same
points on every machine and every rerun.

Layout (``<store root>/campaigns/<key>/``)::

    manifest.json    # sweep name + spec document, group_target, totals
    group-<i>.json   # encoded reducer states + covered point indices

All writes go through the store's atomic writer (temp file +
``os.replace``), so a kill can lose at most the group in flight — never
corrupt a banked one — and :meth:`CampaignCheckpoint.discard` removes
the temp file such a kill leaves behind. Resume reads
the banked states back (JSON floats round-trip exactly) and recomputes
only the missing groups; because the final artifact is built from
replica-slot vectors whose merge is a disjoint union, the resumed
sweep artifact is byte-identical to an uninterrupted run's.

The checkpoint is deleted once the final sweep artifact is published
(or kept, for shard runs, until ``repro sweep merge`` consumes it).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.artifacts.codec import FORMAT_VERSION, canonical, spec_key
from repro.artifacts.store import ArtifactStore, remove_records, write_atomic
from repro.sweeps import streaming
from repro.sweeps.planner import WorkGroup, resolve_group_target
from repro.sweeps.spec import SweepSpec

__all__ = [
    "CampaignKey",
    "BankedGroup",
    "CampaignCheckpoint",
    "campaign_status",
    "campaigns",
]


@dataclass(frozen=True, slots=True)
class CampaignKey:
    """What a checkpoint is addressed by: the sweep and its grouping."""

    spec: SweepSpec
    group_target: int


@dataclass(frozen=True, slots=True)
class BankedGroup:
    """One completed group read back from disk."""

    index: int
    point_indices: tuple[int, ...]
    states: dict[int, streaming.CellState]


def _write_record(path: Path, record: dict) -> None:
    write_atomic(path, [json.dumps(record, sort_keys=True).encode("utf-8")])


class CampaignCheckpoint:
    """Group-granular progress for one (spec, group_target) campaign."""

    def __init__(
        self, store: ArtifactStore, spec: SweepSpec, group_target: int | None = None
    ) -> None:
        self.store = store
        self.spec = spec
        self.group_target = resolve_group_target(group_target)
        self.key = spec_key(CampaignKey(spec=spec, group_target=self.group_target))
        self.directory = store.campaign_dir(self.key)

    # -- writing --------------------------------------------------------------

    def write_manifest(self, n_groups: int) -> None:
        """Publish the campaign's shape (idempotent; same bytes every run)."""
        _write_record(
            self.directory / "manifest.json",
            {
                "format": FORMAT_VERSION,
                "kind": "campaigns",
                "sweep": self.spec.name,
                "sweep_key": spec_key(self.spec),
                "group_target": self.group_target,
                "n_groups": n_groups,
                "n_points": self.spec.n_points,
                "spec": canonical(self.spec),
            },
        )

    def bank(self, group: WorkGroup, states: dict[int, streaming.CellState]) -> None:
        """Atomically persist one completed group's reducer states."""
        _write_record(
            self.directory / f"group-{group.index}.json",
            {
                "format": FORMAT_VERSION,
                "kind": "campaigns",
                "group": group.index,
                "points": list(group.point_indices),
                "cells": streaming.encode_states(states),
            },
        )

    # -- reading --------------------------------------------------------------

    def manifest(self) -> dict | None:
        """The manifest record, or ``None`` when absent/stale."""
        return _read_manifest(self.directory, sweep_key=spec_key(self.spec))

    def banked(self) -> dict[int, BankedGroup]:
        """Every readable banked group, keyed by group index."""
        if self.manifest() is None:
            return {}
        groups: dict[int, BankedGroup] = {}
        for path in sorted(self.directory.glob("group-*.json")):
            try:
                with open(path) as fh:
                    record = json.load(fh)
            except (OSError, json.JSONDecodeError):
                continue
            if record.get("format") != FORMAT_VERSION:
                continue
            index = int(record["group"])
            groups[index] = BankedGroup(
                index=index,
                point_indices=tuple(int(i) for i in record["points"]),
                states=streaming.decode_states(record["cells"]),
            )
        return groups

    def discard(self) -> None:
        """Delete the checkpoint directory (after the artifact ships)."""
        if not self.directory.is_dir():
            return
        remove_records(self.directory)
        try:
            self.directory.rmdir()
        except OSError:
            pass


def _read_manifest(directory: Path, *, sweep_key: str | None = None) -> dict | None:
    try:
        with open(directory / "manifest.json") as fh:
            record = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if record.get("format") != FORMAT_VERSION or record.get("kind") != "campaigns":
        return None
    if sweep_key is not None and record.get("sweep_key") != sweep_key:
        return None
    return record


def campaigns(store: ArtifactStore) -> Iterator[tuple[dict, int]]:
    """Every readable campaign checkpoint: its manifest and banked group count."""
    for directory in store.campaign_dirs():
        record = _read_manifest(directory)
        if record is not None:
            yield record, sum(1 for _ in directory.glob("group-*.json"))


def campaign_status(
    store: ArtifactStore, spec: SweepSpec
) -> tuple[int, int, int] | None:
    """Checkpoint progress for ``spec``: (groups done, total, group_target).

    Scans the store's campaign directories for any checkpoint of this
    sweep (whatever its group target) without planning the campaign —
    cheap enough for ``repro sweep list`` over 10^5-point grids. Returns
    ``None`` when no checkpoint exists.
    """
    key = spec_key(spec)
    for record, done in campaigns(store):
        if record.get("sweep_key") == key:
            return done, int(record["n_groups"]), int(record["group_target"])
    return None
