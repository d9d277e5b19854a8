"""The serving self-test behind ``repro serve --smoke``.

Boots a real :class:`~repro.serve.server.RoutingServer` on an
ephemeral port, fires a concurrent burst of ``/route`` requests over
several keep-alive connections, and checks the full serving contract:

* every request is answered, and each shard's assigned step indices
  are exactly a permutation of its horizon prefix (arrival-order
  assignment; a single server is shard 0);
* each shard's served per-cluster loads are **bit-identical** to an
  offline :class:`~repro.sim.session.RoutingSession` replay of the
  demand rows it was sent, in step order — micro-batching changed
  scheduling, never results;
* ``/healthz`` reports the fed horizon and ``/stats`` counters add up
  (all requests seen, at least one multi-request batch when the burst
  is concurrent).

CI runs this as the serve-smoke job; it needs no network beyond
loopback and finishes in a few seconds.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro import scenarios
from repro.faults import FaultPlan, FaultSpec, wrap_session
from repro.serve.client import HttpClient
from repro.serve.server import RoutingServer, ServerConfig

__all__ = ["run_smoke", "run_chaos"]


def run_smoke(
    scenario_name: str = "serve-smoke",
    *,
    n_requests: int = 48,
    n_connections: int = 8,
    window_ms: float = 10.0,
    max_batch: int = 32,
    workers: int = 1,
) -> dict:
    """Run the self-test; returns the summary dict, raises on failure.

    With ``workers > 1`` the burst goes to a sharded deployment
    instead. Either way each connection's requests land on one shard
    (a single server is shard 0), each shard's step indices form a
    horizon prefix of *its* session, and each shard's served loads are
    bit-identical to an offline replay of the rows it was sent.
    """
    scenario = scenarios.get(scenario_name)
    grid = scenarios.trace(scenario.trace, scenario.market)
    n_requests = min(n_requests, grid.n_steps)
    rows = grid.demand[:n_requests]

    async def _run(port: int) -> tuple[list, dict, tuple[int, dict]]:
        results, _ = await _status_burst("127.0.0.1", port, rows, n_connections)
        async with HttpClient("127.0.0.1", port) as probe:
            health = await probe.request("GET", "/healthz")
            _, stats = await probe.request("GET", "/stats")
        return results, stats, health

    if workers > 1:
        from repro.serve.shard import ShardedServer

        with ShardedServer(
            scenario_name,
            workers=workers,
            window_ms=window_ms,
            max_batch=max_batch,
            session_steps=n_requests,
        ) as sharded:
            results, stats, _ = asyncio.run(_run(sharded.port))
        totals = stats["shards"]
    else:

        async def _run_single() -> tuple[list, dict, tuple[int, dict]]:
            session = scenarios.open_session(scenario, n_steps=n_requests)
            server = RoutingServer(
                session,
                ServerConfig(
                    host="127.0.0.1",
                    port=0,
                    window_ms=window_ms,
                    max_batch=max_batch,
                    scenario=scenario_name,
                ),
            )
            await server.start()
            try:
                return await _run(server.port)
            finally:
                await server.stop()

        results, stats, (health_status, health) = asyncio.run(_run_single())
        if health_status != 200 or health["steps_fed"] != n_requests:
            raise RuntimeError(f"healthz mismatch: {health}")
        totals = stats

    outcomes = _classify(results)
    if outcomes != {"200": n_requests}:
        raise RuntimeError(f"not every request served: {outcomes}")
    if totals["requests_total"] != n_requests:
        raise RuntimeError(f"request count mismatch: {totals}")
    if totals["steps_fed"] != n_requests or totals["batch_rows_total"] != n_requests:
        raise RuntimeError(f"counters mismatch: {totals}")
    if not 1 <= totals["batches_total"] <= n_requests:
        raise RuntimeError(f"implausible batch count: {totals}")

    shards_hit = _check_replay(scenario, rows, [body for _, body in results])

    return {
        "scenario": scenario_name,
        "requests": n_requests,
        "connections": n_connections,
        "window_ms": window_ms,
        "workers": workers,
        "shards_hit": shards_hit,
        "batches_total": totals["batches_total"],
        "batch_size_max": totals["batch_size_max"],
        "batch_size_mean": totals["batch_size_mean"],
        "allocations_identical": True,
    }


def _check_replay(scenario, rows: np.ndarray, responses: list[dict]) -> list[int]:
    """Check each shard's responses against an offline replay; the shards hit.

    Per shard (a single server is shard 0): the steps served are an
    arrival-order horizon prefix, and the served loads are bitwise
    equal to an offline session fed exactly the rows that shard was
    sent, in step order.
    """
    shards_hit = sorted({r.get("shard", 0) for r in responses})
    for shard in shards_hit:
        member_rows = sorted(
            (r["step"], i) for i, r in enumerate(responses) if r.get("shard", 0) == shard
        )
        steps = [step for step, _ in member_rows]
        if steps != list(range(len(steps))):
            raise RuntimeError(f"shard {shard} steps are not a horizon prefix: {steps[:10]}")
        replay = scenarios.open_session(scenario, n_steps=len(rows))
        allocations = replay.feed(np.stack([rows[i] for _, i in member_rows]))
        served = np.array(
            [
                [responses[i]["loads"][label] for label in replay.cluster_labels]
                for _, i in member_rows
            ]
        )
        if not np.array_equal(served, allocations.sum(axis=1)):
            raise RuntimeError(f"shard {shard} loads differ from offline replay")
    return shards_hit


# -- chaos matrix (``repro serve --smoke --chaos``) ---------------------------


async def _status_burst(
    host: str,
    port: int,
    rows: np.ndarray,
    n_connections: int,
    *,
    client_kwargs: dict | None = None,
    slow_every: int = 0,
    slow_ms: float = 0.0,
    abort_every: int = 0,
) -> tuple[list, list[HttpClient]]:
    """Request-level burst: returns ``(status, body)`` pairs per row.

    ``slow_every``/``slow_ms`` delay every Nth request before sending
    (a deterministically slow client); ``abort_every`` cancels every
    Nth request task mid-flight (a client that gives up). Exceptions
    (including cancellations) come back in the result list instead of
    raising, so callers can classify outcomes.
    """
    clients = [
        HttpClient(host, port, **(client_kwargs or {})) for _ in range(n_connections)
    ]
    for client in clients:
        await client.connect()
    try:

        async def one(i: int, row: np.ndarray):
            if slow_every and i % slow_every == 0 and slow_ms > 0:
                await asyncio.sleep(slow_ms / 1000.0)
            return await clients[i % n_connections].request(
                "POST", "/route", {"demand": row.tolist()}
            )

        tasks = [asyncio.ensure_future(one(i, row)) for i, row in enumerate(rows)]
        if abort_every:
            await asyncio.sleep(0.01)
            for i, task in enumerate(tasks):
                if i % abort_every == 0:
                    task.cancel()
        return list(await asyncio.gather(*tasks, return_exceptions=True)), clients
    finally:
        for client in clients:
            await client.close()


def _classify(results: list) -> dict:
    """Bucket burst outcomes by status / exception type."""
    out: dict[str, int] = {}
    for result in results:
        if isinstance(result, asyncio.CancelledError):
            key = "aborted"
        elif isinstance(result, BaseException):
            key = type(result).__name__
        else:
            key = str(result[0])
        out[key] = out.get(key, 0) + 1
    return out


def _assert_reconciled(stats: dict) -> None:
    """The backpressure accounting invariant, on a quiescent server."""
    accounted = (
        stats["batch_rows_total"]
        + stats["rejected_total"]
        + stats["rejected_backpressure_total"]
        + stats["errors_total"]
        + stats["cancelled_total"]
    )
    outstanding = stats["requests_total"] - accounted
    if outstanding < 0 or outstanding > stats.get("queue_depth", 0) + stats["requests_total"]:
        raise RuntimeError(f"stats buckets do not reconcile: {stats}")


async def _chaos_single(
    scenario,
    scenario_name: str,
    plan: FaultPlan,
    rows: np.ndarray,
    *,
    n_connections: int = 6,
    window_ms: float = 5.0,
    max_batch: int = 16,
    max_queue: int | None = 256,
    client_kwargs: dict | None = None,
    slow_every: int = 0,
    slow_ms: float = 0.0,
    abort_every: int = 0,
) -> tuple[list, dict]:
    """One single-process chaos leg: serve ``rows`` under ``plan``."""
    session = wrap_session(
        scenarios.open_session(scenario, n_steps=len(rows)), plan
    )
    server = RoutingServer(
        session,
        ServerConfig(
            host="127.0.0.1",
            port=0,
            window_ms=window_ms,
            max_batch=max_batch,
            scenario=scenario_name,
            max_queue=max_queue,
        ),
    )
    await server.start()
    try:
        results, _ = await _status_burst(
            "127.0.0.1",
            server.port,
            rows,
            n_connections,
            client_kwargs=client_kwargs,
            slow_every=slow_every,
            slow_ms=slow_ms,
            abort_every=abort_every,
        )
        # Let the collector settle so the stats snapshot is quiescent.
        await asyncio.sleep(0.05)
        async with HttpClient("127.0.0.1", server.port) as probe:
            _, stats = await probe.request("GET", "/stats")
        return results, stats
    finally:
        await server.stop()


def run_chaos(
    scenario_name: str = "serve-smoke",
    *,
    seed: int = 20260808,
    n_requests: int = 32,
    workers: int = 2,
) -> dict:
    """Run the fault-injection matrix; returns a summary, raises on failure.

    Every leg uses a seeded :class:`~repro.faults.FaultPlan`, so a
    failing leg replays byte-identically under the same seed. Legs:

    * ``provider_delay`` — injected feed latency; all requests still
      served, bit-identical to an offline replay.
    * ``provider_error`` — a one-shot injected failure; the poisoned
      batch fails with 500, everything else is served, and the error
      fires at the same step across repeated runs.
    * ``queue_saturation`` — a tiny queue bound under injected latency;
      429s with ``retry_after_s`` appear and the stats buckets still
      reconcile.
    * ``slow_client`` / ``abort_client`` — misbehaving clients; the
      server survives and accounting reconciles.
    * ``worker_crash`` — a shard kill (``os._exit(137)``) under load;
      the supervisor respawns it, retrying clients finish the burst,
      and the board records the restart. Skipped (reported, not run)
      where ``SO_REUSEPORT`` is unavailable.
    """
    scenario = scenarios.get(scenario_name)
    grid = scenarios.trace(scenario.trace, scenario.market)
    n_requests = min(n_requests, grid.n_steps)
    rows = grid.demand[:n_requests]
    summary: dict = {"scenario": scenario_name, "seed": seed, "legs": {}}

    # -- provider_delay: latency, never corruption -----------------------------
    plan = FaultPlan(
        seed=seed, faults=(FaultSpec(kind="provider_delay", every=5, delay_ms=15.0),)
    )
    results, stats = asyncio.run(
        _chaos_single(scenario, scenario_name, plan, rows)
    )
    outcomes = _classify(results)
    if outcomes.get("200", 0) != n_requests:
        raise RuntimeError(f"provider_delay: not every request served: {outcomes}")
    _check_replay(scenario, rows, [body for _, body in results])
    _assert_reconciled(stats)
    summary["legs"]["provider_delay"] = {"outcomes": outcomes, "identical": True}

    # -- provider_error: one-shot, deterministic, bounded blast radius ---------
    plan = FaultPlan(
        seed=seed, faults=(FaultSpec(kind="provider_error", step=n_requests // 2),)
    )
    error_bodies = []
    for _ in range(2):
        results, stats = asyncio.run(
            _chaos_single(scenario, scenario_name, plan, rows)
        )
        outcomes = _classify(results)
        if not outcomes.get("500"):
            raise RuntimeError(f"provider_error: injected fault never surfaced: {outcomes}")
        if not outcomes.get("200"):
            raise RuntimeError(f"provider_error: every request failed: {outcomes}")
        _assert_reconciled(stats)
        # Batch composition (how many rows rode the poisoned feed) is
        # timing-dependent; the *fault* itself — which step it fired
        # at — must not be. Compare the distinct error messages.
        error_bodies.append(
            sorted(
                {
                    result[1]["error"]
                    for result in results
                    if not isinstance(result, BaseException) and result[0] == 500
                }
            )
        )
    if error_bodies[0] != error_bodies[1]:
        raise RuntimeError(
            f"provider_error: fault did not replay deterministically: {error_bodies}"
        )
    summary["legs"]["provider_error"] = {"outcomes": outcomes, "replayed": True}

    # -- queue_saturation: bounded queue refuses with 429 + Retry-After --------
    plan = FaultPlan(
        seed=seed,
        faults=(
            FaultSpec(kind="queue_saturation"),
            FaultSpec(kind="provider_delay", every=1, delay_ms=25.0),
        ),
    )
    results, stats = asyncio.run(
        _chaos_single(
            scenario,
            scenario_name,
            plan,
            rows,
            n_connections=8,
            window_ms=0.0,
            max_batch=1,
            max_queue=2,
        )
    )
    outcomes = _classify(results)
    if not outcomes.get("429"):
        raise RuntimeError(f"queue_saturation: no backpressure rejections: {outcomes}")
    for result in results:
        if not isinstance(result, BaseException) and result[0] == 429:
            if result[1].get("retry_after_s", 0) <= 0:
                raise RuntimeError(f"429 without a usable retry hint: {result[1]}")
    if stats["rejected_backpressure_total"] < 1:
        raise RuntimeError(f"queue_saturation: stats missed the rejections: {stats}")
    _assert_reconciled(stats)
    summary["legs"]["queue_saturation"] = {"outcomes": outcomes}

    # -- slow_client: stragglers never block the batch -------------------------
    plan = FaultPlan(
        seed=seed, faults=(FaultSpec(kind="slow_client", delay_ms=40.0),)
    )
    results, stats = asyncio.run(
        _chaos_single(
            scenario, scenario_name, plan, rows, slow_every=4, slow_ms=40.0
        )
    )
    outcomes = _classify(results)
    if outcomes.get("200", 0) != n_requests:
        raise RuntimeError(f"slow_client: not every request served: {outcomes}")
    _assert_reconciled(stats)
    summary["legs"]["slow_client"] = {"outcomes": outcomes}

    # -- abort_client: gave-up clients cost nothing ----------------------------
    plan = FaultPlan(seed=seed, faults=(FaultSpec(kind="abort_client"),))
    results, stats = asyncio.run(
        _chaos_single(
            scenario, scenario_name, plan, rows, window_ms=20.0, abort_every=3
        )
    )
    outcomes = _classify(results)
    if not outcomes.get("aborted"):
        raise RuntimeError(f"abort_client: no aborts landed: {outcomes}")
    _assert_reconciled(stats)
    summary["legs"]["abort_client"] = {"outcomes": outcomes}

    # -- worker_crash: kill -9 a shard, supervisor recovers --------------------
    from repro.serve.shard import reuse_port_supported

    if not reuse_port_supported():
        summary["legs"]["worker_crash"] = {"skipped": "SO_REUSEPORT unavailable"}
        return summary
    summary["legs"]["worker_crash"] = _chaos_worker_crash(
        scenario, scenario_name, rows, seed=seed, workers=workers
    )
    return summary


def _chaos_worker_crash(
    scenario, scenario_name: str, rows: np.ndarray, *, seed: int, workers: int
) -> dict:
    from repro.serve.shard import ShardedServer

    # Crash on the *first* fed step of every initial worker: guaranteed
    # to fire on whichever shard the kernel hashes the first connection
    # onto, so the supervisor always has something to recover from.
    plan = FaultPlan(seed=seed, faults=(FaultSpec(kind="crash_at_step", step=0),))
    plan.to_env()
    try:
        sharded = ShardedServer(
            scenario_name,
            workers=workers,
            session_steps=len(rows),
            backoff_base_s=0.05,
            backoff_cap_s=0.5,
        )
        sharded.start()
        sharded.wait_ready()
        # Respawned workers must come up fault-free: the spawn context
        # snapshots the environment at spawn time, so disarming now
        # means only the *initial* shard-0 worker carries the plan.
        FaultPlan.clear_env()
        try:

            async def _run() -> tuple[list, dict]:
                results, _ = await _status_burst(
                    "127.0.0.1",
                    sharded.port,
                    rows,
                    n_connections=6,
                    client_kwargs={"max_retries": 8, "retry_seed": seed},
                )
                # The probe may land mid-respawn; give it its own budget.
                async with HttpClient(
                    "127.0.0.1", sharded.port, max_retries=8, retry_seed=seed + 1
                ) as probe:
                    _, stats = await probe.request("GET", "/stats")
                return results, stats

            results, stats = asyncio.run(_run())
            outcomes = _classify(results)
            restarts = dict(sharded.restarts)
        finally:
            sharded.stop()
    finally:
        FaultPlan.clear_env()

    aggregate = stats.get("shards", {})
    if outcomes.get("200", 0) != len(rows):
        raise RuntimeError(f"worker_crash: burst did not complete: {outcomes}")
    if sum(restarts.values()) < 1 and aggregate.get("restarts_total", 0) < 1:
        raise RuntimeError(
            f"worker_crash: the supervisor never respawned a shard "
            f"(restarts={restarts}, aggregate={aggregate})"
        )
    return {"outcomes": outcomes, "restarts": restarts}
