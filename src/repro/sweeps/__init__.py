"""Monte-Carlo scenario sweeps: figures as distributions, not points.

Every headline number in the reproduction is a point estimate on one
synthetic trace and one synthetic market. This package turns any
frozen :class:`~repro.scenarios.spec.Scenario` into an *ensemble*: a
:class:`SweepSpec` expands the base scenario over parameter grids
(:class:`SweepAxis`) and over N seeded replicas (collision-free
``SeedSequence``-spawned market/trace seeds), and the campaign
pipeline executes it at any scale — the planner streams work groups
lazily from the spec, workers fold point metrics into mergeable
per-cell reducers, completed groups are checkpointed for
byte-identical resume, and a deterministic shard-spec splits a
campaign across machines with a bitwise-equal merge. The aggregator
reports each grid cell as mean / std / 95% bootstrap CI.

Typical use::

    from repro import sweeps

    result = sweeps.run_sweep(sweeps.get("fig15-ensemble"), jobs=4)
    print(result.to_text())

or from the command line::

    repro sweep run smoke-grid --jobs 2
    repro sweep run campaign-grid --shard 0/4 --jobs 8   # one of four machines
    repro sweep merge campaign-grid                      # after all shards
    repro sweep summarize smoke-grid
"""

from repro.sweeps.aggregate import CellStats, MetricStats, SweepResult, aggregate, bootstrap_ci
from repro.sweeps.checkpoint import CampaignCheckpoint, campaign_status, campaigns
from repro.sweeps.executor import group_points, run_sweep
from repro.sweeps.metrics import METRIC_NAMES, point_metrics
from repro.sweeps.planner import DEFAULT_GROUP_POINTS, WorkGroup, count_groups, plan_groups
from repro.sweeps.registry import REGISTRY, get, names, register
from repro.sweeps.seeding import replica_seed, replica_seeds
from repro.sweeps.shards import merge_sweep, parse_shard
from repro.sweeps.spec import (
    SweepAxis,
    SweepCell,
    SweepPoint,
    SweepSpec,
    cells,
    expand,
    iter_cells,
    iter_points,
)

__all__ = [
    "REGISTRY",
    "get",
    "names",
    "register",
    "SweepAxis",
    "SweepCell",
    "SweepPoint",
    "SweepSpec",
    "cells",
    "expand",
    "iter_cells",
    "iter_points",
    "DEFAULT_GROUP_POINTS",
    "WorkGroup",
    "plan_groups",
    "count_groups",
    "group_points",
    "run_sweep",
    "CampaignCheckpoint",
    "campaign_status",
    "campaigns",
    "parse_shard",
    "merge_sweep",
    "CellStats",
    "MetricStats",
    "SweepResult",
    "aggregate",
    "bootstrap_ci",
    "METRIC_NAMES",
    "point_metrics",
    "replica_seed",
    "replica_seeds",
]
