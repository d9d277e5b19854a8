#!/usr/bin/env python3
"""Benchmark gate: host-independent speed ratios, each against its bound.

Each section checks that two sides of one piece of work give equal
outputs, then prints the ratio of their times (see :func:`ratio`) next
to its bound; absolute times move with the host and are not gated. The
gate takes no options, writes nothing, and exits 1 if any outputs
differ or any bound is broken. Run it as

    PYTHONPATH=src python benchmarks/gate.py
"""

from __future__ import annotations

import asyncio
import statistics
import sys
import time
import tracemalloc
from datetime import datetime
from functools import partial
from pathlib import Path

import numpy as np

from repro import artifacts, scenarios, sweeps
from repro.markets.calendar import HourlyCalendar
from repro.markets.generator import MarketConfig, generate_market
from repro.routing import PriceConsciousRouter, RoutingProblem, batch_allocate
from repro.routing import BaselineProximityRouter, JointOptimizationRouter
from repro.sim import SimulationOptions, simulate, simulate_per_step
from repro.traffic.clusters import akamai_like_deployment
from repro.traffic.synthetic import TraceConfig, make_trace
from repro.traffic.trace import HourOfWeekWorkload

# The per-step oracle routers: the scalar programs the routers' batch
# forms replaced, kept with the tests as their reference.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from router_oracle import oracle  # noqa: E402

SAMPLES = 10  # interleaved samples per ratio


class OutputsDiffer(Exception):
    """The two sides of a section disagree; its timing would mean nothing."""


def same(label: str, equal: bool) -> None:
    if not equal:
        raise OutputsDiffer(f"{label}: the two sides' outputs differ")


def ratio(numerator, denominator) -> float:
    """Median over interleaved samples of time(numerator) / time(denominator).

    Both sides run once untimed first (lazy imports, caches). Within a
    sample the sides run back to back, alternating which goes first, so
    a slow stretch of the host lands on both sides of a sample alike.
    """
    numerator()
    denominator()
    ratios = []
    for i in range(SAMPLES):
        times = {}
        for fn in (numerator, denominator) if i % 2 == 0 else (denominator, numerator):
            t0 = time.perf_counter()
            fn()
            times[fn] = time.perf_counter() - t0
        ratios.append(times[numerator] / times[denominator])
    return statistics.median(ratios)


def routers(problem: RoutingProblem) -> dict:
    """The price, baseline and joint routers, as the figures configure them."""
    return {
        "price": PriceConsciousRouter(problem, distance_threshold_km=1500.0),
        "baseline": BaselineProximityRouter(problem),
        "joint": JointOptimizationRouter(
            problem, distance_penalty_per_1000km=10.0, congestion_penalty=50.0
        ),
    }


def engine():
    """``simulate_per_step`` on the oracle routers over ``simulate``,
    for five router cases.

    Each floor, like the stacked section's, is at most 0.75x the median
    of 12 gate runs on a two-CPU box and below the lowest of them.
    """
    dataset = generate_market(MarketConfig(start=datetime(2008, 1, 1), months=4, seed=2009))
    base = make_trace(TraceConfig(start=datetime(2008, 2, 1), seed=1224))
    trace = HourOfWeekWorkload.from_trace(base).expand(HourlyCalendar(datetime(2008, 2, 1), 1440))
    problem = RoutingProblem(akamai_like_deployment())
    price, baseline, joint = routers(problem).values()
    caps = SimulationOptions(
        bandwidth_caps=simulate(trace, dataset, problem, baseline).percentiles_95()
    )
    cases = {
        "price_unconstrained": (price, None, 1.7),
        "price_followed_95_5": (price, caps, 2.0),
        "baseline_proximity": (baseline, None, 5.5),
        "joint_soft_objective": (joint, None, 2.5),
        "joint_followed_95_5": (joint, caps, 2.7),
    }
    for name, (router, options, floor) in cases.items():
        batched = partial(simulate, trace, dataset, problem, router, options)
        per_step = partial(simulate_per_step, trace, dataset, problem, oracle(router), options)
        same(f"engine:{name}", np.array_equal(batched().loads, per_step().loads))
        yield f"engine:{name}", ratio(per_step, batched), ">=", floor


def provider():
    """Dataset materialisation through the provider layer over direct.

    The layer is a constructor and a method call on top of market
    generation: anything beyond timing noise is a bug.
    """
    from repro.markets.providers import SYNTHETIC, build_provider
    from repro.scenarios.spec import MarketSpec

    direct = partial(generate_market, MarketConfig(start=datetime(2008, 1, 1), months=3, seed=2009))
    market = MarketSpec(start=datetime(2008, 1, 1), months=3, seed=2009)

    def via_provider():
        return build_provider(SYNTHETIC).dataset(market)

    same("provider", direct().price_matrix.tobytes() == via_provider().price_matrix.tobytes())
    yield "provider:overhead", ratio(via_provider, direct), "<=", 1.25


def router_cost():
    """``batch_allocate`` of 8 spilling rows over 8 scalar ``allocate``
    calls of the oracle routers.

    Above 1, coalescing requests slows the server down. Demand is at 87%
    of uneven per-step limits, so every row spills into the greedy walk.
    """
    rows, loops = 8, 25  # per timed side: 25 batch calls, or 25 x 8 scalar calls
    problem = RoutingProblem(akamai_like_deployment())
    rng = np.random.default_rng(18)
    demand = rng.random((rows, problem.n_states)) * 2e4
    prices = rng.random((rows, problem.n_clusters)) * 120.0 + 15.0
    shares = 0.25 + rng.random((rows, problem.n_clusters))
    shares /= shares.sum(axis=1, keepdims=True)
    limits = shares * demand.sum(axis=1, keepdims=True) / 0.87
    for name, router in routers(problem).items():

        def batch(router=router):
            return [batch_allocate(router, demand, prices, limits) for _ in range(loops)]

        def scalar(twin=oracle(router)):
            return [
                np.stack([twin.allocate(demand[t], prices[t], limits[t]) for t in range(rows)])
                for _ in range(loops)
            ]

        same(f"router_cost:{name}", np.array_equal(batch()[0], scalar()[0]))
        yield f"router_cost:{name}", ratio(batch, scalar), "<=", 1.0


def campaign():
    """Streaming ``run_sweep`` over eager ``aggregate`` on ``campaign-grid``.

    Metrics are stubbed by point identity, so this times the pipeline,
    not the engine. Streaming must stay within noise in time and hold
    under half the peak memory: the eager path holds every point at once.
    """
    from repro.sweeps import executor
    from repro.sweeps.spec import expand

    spec = sweeps.get("campaign-grid")
    streaming = partial(sweeps.run_sweep, spec, jobs=1)

    def stub_metrics(scenario, energy):
        kw = scenario.router.kwargs
        km, price = kw["distance_threshold_km"], kw["price_threshold"]
        return {"savings_pct": (scenario.trace.seed % 9973 + km * 1e-3 + price) * 1e-3}

    def eager():
        points = expand(spec)
        metrics = {p.index: stub_metrics(p.scenario, p.energy) for p in points}
        return sweeps.aggregate(spec, points, metrics)

    def peak(fn) -> int:
        tracemalloc.start()
        fn()
        _, traced = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return traced

    real = executor._warm_group, executor.point_metrics
    executor._warm_group = lambda group: None
    executor.point_metrics = stub_metrics
    artifacts.configure(None)
    try:
        same("campaign", streaming().to_json_dict() == eager().to_json_dict())
        yield "campaign:overhead", ratio(streaming, eager), "<=", 1.15
        eager_peak, stream_peak = peak(eager), peak(streaming)
        print(f"  peak {eager_peak / 2**20:.1f} MiB eager, {stream_peak / 2**20:.1f} MiB streaming")
        yield "campaign:peak", stream_peak / eager_peak, "<=", 0.5
    finally:
        executor._warm_group, executor.point_metrics = real
        artifacts.reset()


def stacked_replicas():
    """Per-point over stacked cold ``run_sweep`` on a 2-cell x 40-replica slice.

    The slice keeps the first distance threshold and every fifth price
    threshold of ``campaign-grid``: 80 points, every one simulated.
    """
    from repro.scenarios import runner

    grid = sweeps.get("campaign-grid")
    axes = [sweeps.SweepAxis(a.name, a.values[::n], a.target) for a, n in zip(grid.axes, (25, 5))]
    spec = grid.derive(axes=tuple(axes))

    def stacked():
        scenarios.clear_caches()
        return sweeps.run_sweep(spec, jobs=1)

    def per_point():
        real = runner._execute_stacked
        runner._execute_stacked = lambda group, traces: [runner._execute(s) for s in group]
        try:
            return stacked()
        finally:
            runner._execute_stacked = real

    artifacts.configure(None)
    try:
        same("stacked", stacked().to_json_dict() == per_point().to_json_dict())
        yield "stacked:speedup", ratio(per_point, stacked), ">=", 1.6
    finally:
        artifacts.reset()
        scenarios.clear_caches()


def sharded_serving():
    """QPS of a 2-worker ``ShardedServer`` over a 1-worker one.

    Both get the same closed-loop burst of 256 requests over 32 keep-alive
    connections from this process, so no client shares a server's event
    loop. Workers serve rolling sessions of 288-step windows, so no burst
    exhausts a horizon. On two CPUs the workers time-slice: the floor is
    a no-collapse one.
    """
    requests, connections, window = 256, 32, 288
    from repro.serve import HttpClient
    from repro.serve.shard import ShardedServer

    scenario = scenarios.get("serve-smoke")
    rows = scenarios.trace(scenario.trace, scenario.market).demand[:requests]

    async def burst(port: int) -> list[dict]:
        bodies: list[dict] = [{}] * requests

        async def drive(share: range) -> None:
            async with HttpClient("127.0.0.1", port, max_retries=3) as client:
                for i in share:
                    bodies[i] = await client.route(rows[i].tolist())

        await asyncio.gather(*(drive(range(c, requests, connections)) for c in range(connections)))
        return bodies

    def replayed(bodies: list[dict]) -> bool:
        """Each shard's loads against an offline rolling replay of its rows."""
        for shard in {body["shard"] for body in bodies}:
            members = sorted(
                (b["step"], i) for i, b in enumerate(bodies) if b["shard"] == shard
            )
            replay = scenarios.open_rolling_session(scenario, window_steps=window)
            loads = replay.feed(np.stack([rows[i] for _, i in members])).sum(axis=1)
            served = [[bodies[i]["loads"][c] for c in replay.cluster_labels] for _, i in members]
            if not np.array_equal(np.array(served), loads):
                return False
        return True

    server = partial(ShardedServer, "serve-smoke", window_ms=2.0, max_batch=64)
    with server(workers=1, rolling_window=window) as one:
        with server(workers=2, rolling_window=window) as two:
            one_burst, two_burst = (lambda s=s: asyncio.run(burst(s.port)) for s in (one, two))
            same("sharded", replayed(one_burst()) and replayed(two_burst()))
            qps = ratio(one_burst, two_burst)
    yield "sharded:qps_2_over_1", qps, ">=", 0.5


def main() -> int:
    failed = []
    for section in (engine, provider, router_cost, campaign, stacked_replicas, sharded_serving):
        try:
            for label, reading, op, bound in section():
                ok = reading >= bound if op == ">=" else reading <= bound
                print(f"{label:32s} {reading:6.2f}  {op} {bound:4.2f}  {'ok' if ok else 'FAIL'}")
                if not ok:
                    failed.append(label)
        except OutputsDiffer as exc:
            print(f"FAIL: {exc}")
            failed.append(section.__name__)
    print(f"gate failed: {', '.join(failed)}" if failed else "gate passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
