"""Campaign execution: a planned, streaming, checkpointed sweep pipeline.

The old executor was an ``expand → pool.map → aggregate`` monolith: it
materialised every point up front, shipped the full group list to every
worker, collected one metric dict per point in the parent, and started
from zero after any crash. This module is the layered replacement; each
layer is its own module and this one only wires them together:

1. **Planner** (:mod:`repro.sweeps.planner`). Work groups stream
   lazily from the spec — buckets keyed on ``(market, provider)``
   flushed at cell boundaries — so parent memory is bounded by open
   groups, never by campaign size, and the partition is a pure
   function of ``(spec, group_target)``.
2. **Streaming reducers** (:mod:`repro.sweeps.streaming`). Workers run
   their group through the stacked :func:`~repro.scenarios.runner.run_many`
   path, then fold point metrics into mergeable per-cell reducers
   (Welford count/mean/M2 plus the bounded replica-slot vectors the
   bootstrap needs). Only reducer states cross the process boundary —
   per-point dicts never ship — and per-task transport is one group's
   scenarios, not the whole campaign.
3. **Checkpoints** (:mod:`repro.sweeps.checkpoint`). Every completed
   group is banked atomically under ``artifacts.KIND_CAMPAIGN``; a
   killed run resumes from the last group boundary and, because the
   final artifact is built from replica slots whose merge is a
   disjoint union, resumes *byte-identically*.
4. **Shards** (:mod:`repro.sweeps.shards`). ``--shard i/N`` runs only
   groups with ``index % N == i`` and banks them; ``merge_sweep``
   unions shard banks into an artifact bitwise equal to a
   single-machine run.

A campaign stores only what it reads back: the materialised market
data set (shared by every worker, shard and re-run), the checkpoint,
and the aggregated :class:`SweepResult` under the spec's hash.
Point and baseline simulations stay in each process's run memo —
nothing reads them once their metrics are folded, so publishing them
would cost more than recomputing the rare overlap. The price is that a
campaign recomputes a point ``repro run`` already published (replica 0
of a figure's scenario), and every pool worker computes its own
groups' baselines. A parallel run's artifacts are byte-identical to a
serial run's: finalisation from replica slots is independent of group
completion order.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Iterable

from repro import artifacts, scenarios
from repro.errors import ConfigurationError
from repro.sweeps import streaming
from repro.sweeps.aggregate import SweepResult
from repro.sweeps.checkpoint import CampaignCheckpoint
from repro.sweeps.metrics import point_metrics
from repro.sweeps.planner import WorkGroup, count_groups, plan_groups
from repro.sweeps.shards import shard_owns
from repro.sweeps.spec import SweepPoint, SweepSpec

__all__ = ["run_sweep", "group_points"]

#: In-flight work groups per pool worker. Bounds parent-side memory
#: (pending futures hold at most ``jobs * OVERSUBSCRIPTION`` groups of
#: scenarios) while keeping a few tasks queued per worker to balance.
OVERSUBSCRIPTION = 2


def group_points(points: list[SweepPoint]) -> list[list[SweepPoint]]:
    """Bucket points by (market, provider), preserving first-appearance order.

    Every bucket shares one materialised market data set (and usually
    one baseline run), so a bucket is the natural unit of work for a
    pool worker: the expensive generation happens once per bucket per
    process. The provider is part of the key — the same market window
    under two price sources is two data sets, and a provider axis must
    fan out across workers rather than collapse into one serial bucket.

    This is the eager form of the partition; campaign execution uses
    the streaming :func:`~repro.sweeps.planner.plan_groups`, which
    buckets on the same key without materialising the expansion.
    """
    buckets: dict[object, list[SweepPoint]] = {}
    for point in points:
        key = (point.scenario.market, point.scenario.provider)
        buckets.setdefault(key, []).append(point)
    return list(buckets.values())


def _warm_group(group: list[tuple[int, object, object]]) -> None:
    """Pull the group's simulations through the stacked replica path.

    Hands every point scenario plus its savings-normalising baseline
    to :func:`repro.scenarios.runner.run_many` in one call: seeded
    replica groups (and the baselines, which differ only in trace
    seed) fuse into single engine passes, and everything lands in the
    runner's memo — not the artifact store — before
    :func:`point_metrics` asks for it.
    """
    specs = []
    for _, scenario, _ in group:
        specs.append(scenario)
        specs.append(
            scenarios.baseline_scenario(scenario.market, scenario.trace, scenario.provider)
        )
    scenarios.run_many(specs)


def _run_group(
    group: list[tuple[int, object, object]],
    force: bool,
) -> dict[int, dict[str, float]]:
    """Compute metrics for one work group (runs in worker or parent)."""
    previous = artifacts.refresh_mode()
    if force:
        artifacts.set_refresh(True)
    try:
        _warm_group(group)
        return {index: point_metrics(scenario, energy) for index, scenario, energy in group}
    finally:
        if force:
            artifacts.set_refresh(previous)


def _reduce_group(
    points: tuple[SweepPoint, ...],
    force: bool,
    metric_names: tuple[str, ...],
) -> dict[int, streaming.CellState]:
    """Run one group and fold its point metrics into cell reducers."""
    triples = [(p.index, p.scenario, p.energy) for p in points]
    metrics_by_point = _run_group(triples, force)
    return streaming.reduce_points(points, metrics_by_point, metric_names)


def _init_worker(store_root: str | None) -> None:
    artifacts.configure(store_root)


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    force: bool = False,
    group_target: int | None = None,
    shard: tuple[int, int] | None = None,
) -> SweepResult | None:
    """Execute a campaign, optionally across a process pool and shards.

    ``force`` recomputes everything: the sweep artifact and any banked
    checkpoint are discarded, and the run starts from a cold in-process
    run memo (campaign simulations never come from the artifact store,
    so the memo is the only place an old result could be served from).
    Artifact reads stay suspended for the run, so a materialised market
    data set is rebuilt and republished too.

    ``shard=(i, n)`` runs only this machine's slice of the group
    partition and banks it in the checkpoint; the return value is
    ``None`` (use :func:`~repro.sweeps.shards.merge_sweep` once every
    shard has banked). Full runs return the final :class:`SweepResult`.
    """
    store = artifacts.get_store()
    if shard is not None and store is None:
        raise ConfigurationError(
            "sharded runs need an artifact store to bank groups into (remove --no-store)"
        )
    if store is not None and not force:
        payload = store.load(artifacts.KIND_SWEEP, spec)
        if payload is not None:
            return SweepResult.from_json_dict(payload)

    if force:
        scenarios.clear_caches()

    checkpoint = None
    banked = {}
    if store is not None:
        checkpoint = CampaignCheckpoint(store, spec, group_target)
        if force:
            checkpoint.discard()
        else:
            banked = checkpoint.banked()
        checkpoint.write_manifest(count_groups(spec, group_target))

    merged: dict[int, streaming.CellState] = {}

    def finish(group: WorkGroup, states: dict[int, streaming.CellState]) -> None:
        if checkpoint is not None:
            checkpoint.bank(group, states)
        streaming.merge_cell_states(merged, states)

    def pending_groups() -> Iterable[WorkGroup]:
        """This run's remaining work; banked groups absorb in passing."""
        for group in plan_groups(spec, group_target):
            if not shard_owns(shard, group.index):
                continue
            cached = banked.get(group.index)
            if cached is not None:
                streaming.merge_cell_states(merged, cached.states)
                continue
            yield group

    if jobs <= 1:
        for group in pending_groups():
            finish(group, _reduce_group(group.points, force, spec.metrics))
    else:
        root = artifacts.active_root()
        store_root = str(root) if root is not None else None
        in_flight: dict = {}

        def drain(return_when: str) -> None:
            done, _ = wait(in_flight, return_when=return_when)
            for future in done:
                finish(in_flight.pop(future), future.result())

        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(store_root,),
        ) as pool:
            window = jobs * OVERSUBSCRIPTION
            for group in pending_groups():
                while len(in_flight) >= window:
                    drain(FIRST_COMPLETED)
                future = pool.submit(_reduce_group, group.points, force, spec.metrics)
                in_flight[future] = group
            while in_flight:
                drain(FIRST_COMPLETED)

    if shard is not None:
        return None

    result = streaming.finalize(spec, merged)
    if store is not None:
        store.save(artifacts.KIND_SWEEP, spec, result.to_json_dict())
        checkpoint.discard()
    return result
