"""Serving checkpoints: park a rolling session, resume it bit-identically.

A :class:`~repro.sim.rolling.RollingSession` banks each completed
billing window's :class:`~repro.sim.results.SimulationResult` as it
rolls — and each window is deterministic given its demand. That makes
the last banked window boundary a perfect restart point: persist the
banked results, rebuild the chain with
:func:`~repro.scenarios.open_rolling_session`'s ``resume_results``,
and every allocation the resumed server serves is bitwise equal to
what an uninterrupted run would have served (steps past the boundary
are simply re-fed live).

Checkpoints live in the content-addressed artifact store under the
``sessions`` kind, keyed by :class:`SessionCheckpointSpec` — the
physical scenario, window size, shard — so shards of one deployment
checkpoint independently and a resumed server can only ever pick up a
checkpoint written by its own configuration. Saving is atomic (the
store's write-then-rename) and idempotent: each save rewrites the full
banked history, so a chain that restarts repeatedly keeps one record.
The windows' arrays travel as raw bytes in the record's tail, so a
resume reads them back without decoding.

The serving lifecycle (:func:`repro.serve.lifecycle.serve`, behind
``repro serve`` and every shard worker) wires this in at both ends:
after SIGTERM drains the server it calls :func:`save_checkpoint`, and
a ``--resume`` start calls :func:`resume_results` and hands the banked
results to the session factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.artifacts.codec import decode_simulation_result, encode_simulation_result
from repro.artifacts.store import KIND_SESSION, ArtifactStore
from repro.scenarios.spec import Scenario
from repro.sim.results import SimulationResult
from repro.sim.rolling import RollingSession

__all__ = [
    "SessionCheckpointSpec",
    "save_checkpoint",
    "load_checkpoint",
    "resume_results",
]


@dataclass(frozen=True)
class SessionCheckpointSpec:
    """The identity a serving checkpoint is addressed by.

    Two servers share a checkpoint exactly when they would serve the
    same chain: same scenario, same window size, same shard of the
    same shard count. Anything else must miss. ``scenario`` is the
    :func:`~repro.scenarios.physical` spec, not a registry name, so a
    provider override or a redefined registry entry misses too.
    """

    scenario: Scenario
    window_steps: int
    shard_index: int = 0
    n_shards: int = 1


def save_checkpoint(
    store: ArtifactStore, spec: SessionCheckpointSpec, roller: RollingSession
) -> Path | None:
    """Persist ``roller``'s banked windows; ``None`` when nothing is banked.

    Only *completed* windows are recorded — the partially-fed active
    window is deliberately dropped, because mid-window engine state
    (the running 95/5 tracker) is not captured by a
    :class:`~repro.sim.results.SimulationResult`. The resumed chain
    re-serves those steps live, which determinism makes bit-identical.
    """
    results = roller.results()
    if not results:
        return None
    payload = {
        "windows_completed": len(results),
        "results": [encode_simulation_result(r) for r in results],
    }
    return store.save(KIND_SESSION, spec, payload)


def load_checkpoint(
    store: ArtifactStore, spec: SessionCheckpointSpec
) -> tuple[SimulationResult, ...]:
    """The banked windows stored under ``spec`` (empty on miss)."""
    payload = store.load(KIND_SESSION, spec)
    if not isinstance(payload, dict) or "results" not in payload:
        return ()
    return tuple(decode_simulation_result(r) for r in payload["results"])


def resume_results(
    store: ArtifactStore | None, spec: SessionCheckpointSpec, *, resume: bool
) -> tuple[SimulationResult, ...]:
    """What to hand ``open_rolling_session(resume_results=...)``.

    Empty unless resuming was requested *and* a store is active *and*
    a checkpoint exists — a fresh start is never an error.
    """
    if not resume or store is None:
        return ()
    return load_checkpoint(store, spec)
