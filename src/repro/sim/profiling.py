"""Lightweight phase timers for the simulation engine.

Every speedup claim in this repository should be *attributed*, not
guessed: the engine's staged pipeline (precompute, routing, greedy
repair, reduction, finalize) is instrumented with phase timers that
cost one truthiness check when disabled and a ``perf_counter`` pair
when enabled.

Usage::

    from repro.sim import profiling

    with profiling.profiled() as phases:
        simulate(trace, dataset, problem, router)
    print(phases)  # {"precompute": 0.012, "routing": 0.31, ...}

Phases nest: ``greedy_repair`` (time inside the batched greedy spill)
is a *subset* of ``routing``, so the phase dictionary is a breakdown
with one deliberate overlap, not a partition. ``profiled`` blocks also
nest — every active collector sees every phase — and the collector
list is process-global.

:func:`profile_cases` is the engine of the ``repro bench profile`` CLI
verb and of the benchmark's per-phase section: it runs representative
router cases on a short trace and returns their per-phase breakdowns.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "PHASES",
    "enabled",
    "profiled",
    "phase",
    "profile_cases",
]

#: Phase names the engine emits, in pipeline order. ``greedy_repair``
#: is nested inside ``routing``; the rest are disjoint.
PHASES = ("precompute", "routing", "greedy_repair", "reduce", "finalize")

# Active collectors, innermost last. A plain module-global list: the
# engine is synchronous per call.
_active: list[dict[str, float]] = []


def enabled() -> bool:
    """Whether any profiling collector is currently active."""
    return bool(_active)


@contextmanager
def profiled() -> Iterator[dict[str, float]]:
    """Collect per-phase wall-clock seconds for the enclosed block."""
    phases: dict[str, float] = {}
    _active.append(phases)
    try:
        yield phases
    finally:
        # Remove by identity: ``list.remove`` compares dicts by value
        # and would evict an *outer* collector whose accumulated
        # timings happen to equal ours.
        for i, active in enumerate(_active):
            if active is phases:
                del _active[i]
                break


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Attribute the enclosed block's wall clock to ``name``."""
    if not _active:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - t0
        for phases in _active:
            phases[name] = phases.get(name, 0.0) + elapsed


def profile_cases(days: int = 60, repeats: int = 1) -> dict[str, dict[str, float]]:
    """Per-phase breakdowns for representative engine cases.

    Runs the benchmark's router cases (price, baseline, joint — with
    and without 95/5 caps for the expensive two) over a ``days``-long
    hour-of-week trace and returns ``{case: {phase: seconds, "total":
    seconds}}`` accumulated over ``repeats`` runs.
    """
    from datetime import datetime

    from repro.markets.calendar import HourlyCalendar
    from repro.markets.generator import MarketConfig, generate_market
    from repro.routing import (
        BaselineProximityRouter,
        JointOptimizationRouter,
        PriceConsciousRouter,
        RoutingProblem,
    )
    from repro.sim.engine import SimulationOptions, simulate
    from repro.traffic.clusters import akamai_like_deployment
    from repro.traffic.synthetic import TraceConfig, make_trace
    from repro.traffic.trace import HourOfWeekWorkload

    months = max(3, days // 30 + 2)
    dataset = generate_market(MarketConfig(start=datetime(2008, 1, 1), months=months, seed=2009))
    base_trace = make_trace(TraceConfig(start=datetime(2008, 2, 1), seed=1224))
    trace = HourOfWeekWorkload.from_trace(base_trace).expand(
        HourlyCalendar(datetime(2008, 2, 1), days * 24)
    )
    problem = RoutingProblem(akamai_like_deployment())
    baseline = BaselineProximityRouter(problem)
    price = PriceConsciousRouter(problem, distance_threshold_km=1500.0)
    joint = JointOptimizationRouter(problem)
    caps = simulate(trace, dataset, problem, baseline).percentiles_95()
    opts95 = SimulationOptions(bandwidth_caps=caps)

    cases = {
        "baseline_proximity": (baseline, None),
        "price_unconstrained": (price, None),
        "joint_soft_objective": (joint, None),
        "joint_followed_95_5": (joint, opts95),
    }
    report: dict[str, dict[str, float]] = {}
    for name, (router, options) in cases.items():
        simulate(trace, dataset, problem, router, options)  # warm caches
        with profiled() as phases:
            t0 = time.perf_counter()
            for _ in range(max(1, repeats)):
                simulate(trace, dataset, problem, router, options)
            total = time.perf_counter() - t0
        report[name] = {**{k: round(v, 4) for k, v in phases.items()}, "total": round(total, 4)}
    return report
