"""Sharded serving: worker processes behind one SO_REUSEPORT port.

These boot real worker processes (spawn context), so they are the
slowest serving tests; the shard-board unit tests run in-process.
Platforms without ``SO_REUSEPORT`` skip the process-level tests.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time

import numpy as np
import pytest

from repro import scenarios
from repro.serve import HttpClient, ShardBoard, run_smoke
from repro.serve.batcher import BatcherStats
from repro.serve.shard import BOARD_FIELDS, ShardedServer, reuse_port_supported

SCENARIO = "serve-smoke"

needs_reuse_port = pytest.mark.skipif(
    not reuse_port_supported(), reason="platform lacks SO_REUSEPORT"
)


def test_shard_board_publishes_and_aggregates():
    board = ShardBoard(2)
    try:
        attached = ShardBoard(2, name=board.name)
        try:
            a = BatcherStats(
                requests_total=10, batches_total=4, batch_size_max=5,
                batch_rows_total=8, rejected_total=1, errors_total=0, cancelled_total=1,
            )
            b = BatcherStats(
                requests_total=6, batches_total=2, batch_size_max=3,
                batch_rows_total=6, rejected_total=0, errors_total=0, cancelled_total=0,
            )
            board.publish(0, a, steps_fed=8)
            assert board.ready_count() == 1
            attached.publish(1, b, steps_fed=6)  # cross-attachment write
            assert board.ready_count() == 2

            agg = board.aggregate()
            assert agg["workers"] == 2 and agg["workers_ready"] == 2
            assert agg["requests_total"] == 16
            assert agg["steps_fed"] == 14
            assert agg["batch_rows_total"] == 14
            assert agg["batch_size_max"] == 5  # max, not sum
            assert agg["batch_size_mean"] == pytest.approx(14 / 6)
            assert agg["rejected_total"] == 1 and agg["cancelled_total"] == 1

            rows = board.per_shard()
            assert len(rows) == 2
            assert set(rows[0]) == set(BOARD_FIELDS) | {"stale", "heartbeat_age_ms"}
            assert rows[1]["requests_total"] == 6
            # Just-published rows are fresh, not stale.
            assert not rows[0]["stale"] and not rows[1]["stale"]
            assert agg["workers_stale"] == 0 and agg["restarts_total"] == 0
        finally:
            attached.close()
    finally:
        board.close(unlink=True)


def test_shard_board_rejects_empty_group():
    with pytest.raises(Exception, match="at least one shard"):
        ShardBoard(0)


@needs_reuse_port
def test_sharded_smoke_with_two_workers():
    """Per-shard step prefixes + per-shard bitwise replay, end to end."""
    out = run_smoke(SCENARIO, n_requests=32, n_connections=6, window_ms=5.0, workers=2)
    assert out["workers"] == 2
    assert out["allocations_identical"]
    assert out["requests"] == 32


@needs_reuse_port
def test_sharded_server_aggregates_stats_and_serves_rolling_windows():
    scenario = scenarios.get(SCENARIO)
    rows = scenarios.trace(scenario.trace, scenario.market).demand[:12]

    with ShardedServer(
        SCENARIO, workers=2, window_ms=2.0, rolling_window=4, max_windows=4
    ) as sharded:

        async def drive():
            clients = [HttpClient("127.0.0.1", sharded.port) for _ in range(4)]
            for c in clients:
                await c.connect()
            try:
                bodies = await asyncio.gather(
                    *(clients[i % 4].route(rows[i].tolist()) for i in range(12))
                )
                _, stats = await clients[0].request("GET", "/stats")
                _, health = await clients[0].request("GET", "/healthz")
            finally:
                for c in clients:
                    await c.close()
            return bodies, stats, health

        bodies, stats, health = asyncio.run(drive())

    # A keep-alive connection is pinned to one shard for its lifetime.
    by_client = {}
    for i, body in enumerate(bodies):
        by_client.setdefault(i % 4, set()).add(body["shard"])
    assert all(len(shards) == 1 for shards in by_client.values())

    # Every shard assigned steps in arrival order over its own session.
    by_shard: dict[int, list[int]] = {}
    for body in bodies:
        by_shard.setdefault(body["shard"], []).append(body["step"])
    for steps in by_shard.values():
        assert sorted(steps) == list(range(len(steps)))

    # The aggregate board reconciles with what was actually served,
    # whichever shard answered /stats.
    agg = stats["shards"]
    assert agg["workers"] == 2 and agg["workers_ready"] == 2
    assert agg["requests_total"] == 12
    assert agg["steps_fed"] == 12 and agg["batch_rows_total"] == 12
    assert health["workers"] == 2 and health["shard"] in (0, 1)
    # Rolling horizon: 4 windows of 4 steps per shard.
    assert health["steps_remaining"] == 16 - len(by_shard[health["shard"]])


@needs_reuse_port
def test_a_one_worker_deployment_answers_with_shard_zero():
    """Every /route answer names its shard, so clients read one key set
    whatever the deployment's size."""
    scenario = scenarios.get(SCENARIO)
    rows = scenarios.trace(scenario.trace, scenario.market).demand[:2]

    with ShardedServer(SCENARIO, workers=1, window_ms=1.0) as sharded:

        async def drive():
            client = HttpClient("127.0.0.1", sharded.port)
            await client.connect()
            try:
                return [await client.route(row.tolist()) for row in rows]
            finally:
                await client.close()

        bodies = asyncio.run(drive())

    assert [(body["step"], body["shard"]) for body in bodies] == [(0, 0), (1, 0)]


def test_sharded_server_rejects_bad_worker_counts():
    with pytest.raises(Exception, match="workers"):
        ShardedServer(SCENARIO, workers=0)


def test_shard_board_flags_stale_heartbeats():
    """A ready shard that stops publishing is called out, not averaged in."""
    board = ShardBoard(2)
    try:
        stats = BatcherStats(requests_total=3, batches_total=1, batch_rows_total=3)
        board.publish(0, stats, steps_fed=3)
        board.publish(1, stats, steps_fed=3)
        # Rewind shard 1's heartbeat far past the staleness horizon.
        beat = BOARD_FIELDS.index("heartbeat_ns")
        board._cells[1, beat] = time.time_ns() - int(60e9)

        rows = board.per_shard(stale_after_s=3.0)
        assert not rows[0]["stale"] and rows[1]["stale"]
        assert rows[0]["heartbeat_age_ms"] < 1000.0
        assert rows[1]["heartbeat_age_ms"] > 59_000.0

        agg = board.aggregate(stale_after_s=3.0)
        assert agg["workers_ready"] == 2  # stale is not dead...
        assert agg["workers_stale"] == 1 and agg["stale_shards"] == [1]

        # An unready shard is never stale — there is no heartbeat to age.
        board.clear_shard(1)
        rows = board.per_shard(stale_after_s=3.0)
        assert not rows[1]["stale"] and rows[1]["heartbeat_age_ms"] is None
    finally:
        board.close(unlink=True)


@needs_reuse_port
def test_wait_ready_fails_fast_naming_the_dead_shard():
    """A worker that dies during startup surfaces immediately — with its
    shard id and exit code — instead of burning the whole ready timeout."""
    sharded = ShardedServer("no-such-scenario", workers=2)
    sharded.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match=r"shard \d .* before becoming ready"):
            sharded.wait_ready(timeout=120.0)
    finally:
        sharded.stop()
    assert time.monotonic() - t0 < 60.0, "startup death must not wait out the timeout"


@needs_reuse_port
def test_supervisor_respawns_a_killed_shard_and_serving_recovers():
    """kill -9 one shard under way: the supervisor respawns it and a
    retrying client routes again across the rebuilt group."""
    scenario = scenarios.get(SCENARIO)
    rows = scenarios.trace(scenario.trace, scenario.market).demand[:16]

    async def burst(port: int, demand_rows, *, seed: int) -> list[dict]:
        clients = [
            HttpClient(
                "127.0.0.1", port,
                max_retries=8, backoff_base_s=0.05, retry_seed=seed + i,
            )
            for i in range(4)
        ]
        for c in clients:
            await c.connect()
        try:
            return await asyncio.gather(
                *(
                    clients[i % 4].route(row.tolist())
                    for i, row in enumerate(demand_rows)
                )
            )
        finally:
            for c in clients:
                await c.close()

    with ShardedServer(
        SCENARIO, workers=2, window_ms=2.0, backoff_base_s=0.05, backoff_cap_s=0.5
    ) as sharded:
        before = asyncio.run(burst(sharded.port, rows[:8], seed=1))
        assert len(before) == 8

        victim = sharded.pids[0]
        assert victim is not None
        os.kill(victim, signal.SIGKILL)

        deadline = time.monotonic() + 30.0
        while sharded.restarts.get(0, 0) < 1:
            assert time.monotonic() < deadline, "supervisor never respawned shard 0"
            time.sleep(0.05)
        sharded.wait_restarted(0)
        assert sharded.pids[0] != victim

        # QPS recovers: the rebuilt group serves a fresh burst whole.
        after = asyncio.run(burst(sharded.port, rows[8:], seed=9))
        assert len(after) == 8

        board = sharded.board
        assert board is not None
        agg = board.aggregate()
        assert agg["workers_ready"] == 2
        assert agg["restarts_total"] >= 1
        assert sharded.restarts[0] >= 1
