"""Integration tests for the routing server and micro-batcher.

Everything runs a real asyncio server on an ephemeral loopback port
through the stdlib-only :class:`~repro.serve.client.HttpClient`; the
central claim under test is that concurrent requests coalesced by the
micro-batcher return exactly the allocations a direct offline session
feed produces.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro import scenarios
from repro.serve import (
    BackpressureError,
    HttpClient,
    MicroBatcher,
    RoutingServer,
    ServerConfig,
    ServerDrainingError,
    run_smoke,
)
from repro.sim.session import SessionExhaustedError

SCENARIO = "serve-smoke"


def _scenario():
    return scenarios.get(SCENARIO)


def _rows(n: int) -> np.ndarray:
    scenario = _scenario()
    return scenarios.trace(scenario.trace, scenario.market).demand[:n]


def _with_server(n_steps: int, coro_fn, *, window_ms: float = 5.0, max_batch: int = 16):
    """Boot a server on an ephemeral port, run ``coro_fn(server)``, stop."""

    async def runner():
        session = scenarios.open_session(_scenario(), n_steps=n_steps)
        server = RoutingServer(
            session,
            ServerConfig(
                host="127.0.0.1", port=0, window_ms=window_ms, max_batch=max_batch,
                scenario=SCENARIO,
            ),
        )
        await server.start()
        try:
            return await coro_fn(server)
        finally:
            await server.stop()

    return asyncio.run(runner())


def test_smoke_self_test_passes():
    out = run_smoke(SCENARIO, n_requests=24, n_connections=6, window_ms=10.0, max_batch=16)
    assert out["allocations_identical"]
    assert out["requests"] == 24
    assert 1 <= out["batches_total"] <= 24


def test_concurrent_requests_match_direct_batched_feed():
    n = 20
    rows = _rows(n)

    async def drive(server):
        clients = [HttpClient("127.0.0.1", server.port) for _ in range(5)]
        for c in clients:
            await c.connect()
        try:
            bodies = await asyncio.gather(
                *(clients[i % 5].route(rows[i].tolist(), full=True) for i in range(n))
            )
        finally:
            for c in clients:
                await c.close()
        return bodies

    bodies = _with_server(n, drive)

    # Reconstruct the served allocation tensor in step order, then
    # replay the same demand sequence through a direct offline feed.
    demand_by_step = np.empty_like(rows)
    served = np.empty((n, len(rows[0]), 9))
    for i, body in enumerate(bodies):
        step = body["step"]
        demand_by_step[step] = rows[i]
        served[step] = np.asarray(body["allocation"]["matrix"])
    direct = scenarios.open_session(_scenario(), n_steps=n)
    allocations = direct.feed(demand_by_step)
    assert np.array_equal(served, allocations)
    # Steps were assigned in arrival order with no gaps.
    assert sorted(b["step"] for b in bodies) == list(range(n))


def test_route_response_shape_and_stats():
    rows = _rows(3)

    async def drive(server):
        async with HttpClient("127.0.0.1", server.port) as client:
            first = await client.route(rows[0].tolist())
            second = await client.route({
                code: float(value)
                for code, value in zip(server.session.state_codes, rows[1])
                if value > 0
            })
            _, health = await client.request("GET", "/healthz")
            _, stats = await client.request("GET", "/stats")
        return first, second, health, stats

    first, second, health, stats = _with_server(3, drive)
    labels = list(scenarios.problem().deployment.labels)
    assert first["step"] == 0 and second["step"] == 1
    assert sorted(first["loads"]) == sorted(labels)
    assert sorted(first["prices"]) == sorted(labels)
    assert "T" in first["clock"]  # ISO timestamp
    assert health["status"] == "ok" and health["steps_fed"] == 2
    assert stats["requests_total"] == 2
    assert stats["steps_fed"] == 2 and stats["steps_remaining"] == 1
    assert stats["scenario"] == SCENARIO


def test_http_error_paths():
    rows = _rows(2)

    async def drive(server):
        async with HttpClient("127.0.0.1", server.port) as client:
            results = {}
            results["not_found"] = await client.request("GET", "/nope")
            results["bad_method"] = await client.request("GET", "/route")
            results["bad_json"] = await client.request("POST", "/route", None)
            results["bad_key"] = await client.request("POST", "/route", {"x": 1})
            results["bad_len"] = await client.request("POST", "/route", {"demand": [1.0]})
            results["bad_state"] = await client.request(
                "POST", "/route", {"demand": {"ZZ": 1.0}}
            )
            results["negative"] = await client.request(
                "POST", "/route", {"demand": (-rows[0]).tolist()}
            )
            await client.route(rows[0].tolist())
            await client.route(rows[1].tolist())
            results["exhausted"] = await client.request(
                "POST", "/route", {"demand": rows[0].tolist()}
            )
        return results

    results = _with_server(2, drive)
    assert results["not_found"][0] == 404
    assert results["bad_method"][0] == 405
    assert results["bad_key"][0] == 400
    assert results["bad_len"][0] == 400
    assert results["bad_state"][0] == 400
    assert results["negative"][0] == 400
    assert results["exhausted"][0] == 409
    for key in ("bad_key", "bad_len", "bad_state", "negative", "exhausted"):
        assert "error" in results[key][1]


def test_keep_alive_connection_serves_sequential_steps():
    rows = _rows(6)

    async def drive(server):
        async with HttpClient("127.0.0.1", server.port) as client:
            return [await client.route(row.tolist()) for row in rows]

    bodies = _with_server(6, drive)
    assert [b["step"] for b in bodies] == list(range(6))


def test_stop_fails_requests_mid_feed_instead_of_hanging():
    """Regression: stopping the batcher mid-feed stranded in-flight futures.

    The feed is slowed so the collector is guaranteed to be inside the
    executor call when ``stop()`` cancels it; every submitted request
    must then resolve (with an error), not hang forever.
    """
    rows = _rows(4)

    async def drive():
        session = scenarios.open_session(_scenario(), n_steps=4)
        original = session.feed
        session.feed = lambda demand: (time.sleep(0.4), original(demand))[1]
        batcher = MicroBatcher(session, window_ms=1.0, max_batch=4)
        await batcher.start()
        tasks = [asyncio.ensure_future(batcher.route(row)) for row in rows]
        await asyncio.sleep(0.1)  # collector is now sleeping inside feed
        await asyncio.wait_for(batcher.stop(), timeout=2.0)
        return await asyncio.wait_for(
            asyncio.gather(*tasks, return_exceptions=True), timeout=2.0
        )

    outcomes = asyncio.run(drive())
    assert len(outcomes) == 4
    assert all(isinstance(o, SessionExhaustedError) for o in outcomes)


def test_cancelled_request_does_not_burn_a_horizon_step():
    rows = _rows(3)

    async def drive():
        session = scenarios.open_session(_scenario(), n_steps=3)
        batcher = MicroBatcher(session, window_ms=50.0, max_batch=8)
        # Enqueue before the collector exists, so the cancellation is
        # deterministically visible when the batch is assembled.
        tasks = [asyncio.ensure_future(batcher.route(row)) for row in rows]
        await asyncio.sleep(0)  # let the requests enqueue
        tasks[1].cancel()
        await batcher.start()
        done = await asyncio.gather(*tasks, return_exceptions=True)
        stats = batcher.stats
        steps_fed = session.steps_fed
        await batcher.stop()
        return done, stats, steps_fed

    done, stats, steps_fed = asyncio.run(drive())
    # The two surviving requests got consecutive steps; the cancelled
    # one consumed nothing.
    assert steps_fed == 2
    assert done[0][0] == 0 and done[2][0] == 1
    assert isinstance(done[1], asyncio.CancelledError)
    assert stats.cancelled_total == 1
    assert stats.requests_total == stats.resolved_total == 3


def test_batcher_stats_reconcile_after_mixed_outcomes():
    rows = _rows(8)

    async def drive(server):
        clients = [HttpClient("127.0.0.1", server.port) for _ in range(4)]
        for c in clients:
            await c.connect()
        try:
            # 6 routable requests + 2 past the horizon (rejected).
            outcomes = await asyncio.gather(
                *(
                    clients[i % 4].request("POST", "/route", {"demand": rows[i].tolist()})
                    for i in range(8)
                )
            )
            _, stats = await clients[0].request("GET", "/stats")
        finally:
            for c in clients:
                await c.close()
        return outcomes, stats

    outcomes, stats = _with_server(6, drive)
    assert sorted(status for status, _ in outcomes) == [200] * 6 + [409] * 2
    assert stats["requests_total"] == 8
    assert stats["rejected_total"] == 2
    assert stats["requests_total"] == (
        stats["batches_total"] * stats["batch_size_mean"]
        + stats["rejected_total"]
        + stats["errors_total"]
        + stats["cancelled_total"]
    )


def test_full_queue_refuses_at_admission_with_retry_hint():
    """The admission bound fires before anything enqueues, and the
    refusal carries a service-rate retry estimate."""
    rows = _rows(4)

    async def drive():
        session = scenarios.open_session(_scenario(), n_steps=4)
        batcher = MicroBatcher(session, window_ms=50.0, max_batch=8, max_queue=2)
        # No collector yet: the queue can only fill, so admission is
        # deterministic — two fit, the third is refused.
        tasks = [asyncio.ensure_future(batcher.route(row)) for row in rows[:3]]
        await asyncio.sleep(0)  # let the route coroutines hit admission
        assert batcher.queue_depth == 2
        await batcher.start()
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        stats = batcher.stats
        await batcher.stop()
        return outcomes, stats

    outcomes, stats = asyncio.run(drive())
    assert outcomes[0][0] == 0 and outcomes[1][0] == 1  # admitted pair routed
    refused = outcomes[2]
    assert isinstance(refused, BackpressureError)
    assert not isinstance(refused, ServerDrainingError)
    assert refused.retry_after_s > 0
    assert "queue full" in str(refused)
    assert stats.rejected_backpressure_total == 1
    assert stats.requests_total == stats.resolved_total == 3


def test_route_after_stop_is_refused_not_hung():
    """Regression: a route() call after stop() used to enqueue onto a
    queue nobody drains and hang forever; it must refuse at admission."""
    rows = _rows(2)

    async def drive():
        session = scenarios.open_session(_scenario(), n_steps=2)
        batcher = MicroBatcher(session, window_ms=1.0, max_batch=4)
        await batcher.start()
        await batcher.route(rows[0])
        await batcher.stop()
        with pytest.raises(ServerDrainingError, match="draining"):
            await asyncio.wait_for(batcher.route(rows[1]), timeout=2.0)
        return batcher.stats

    stats = asyncio.run(drive())
    assert stats.rejected_backpressure_total == 1
    assert stats.requests_total == stats.resolved_total == 2


async def _raw_request(port: int, head: str) -> str:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(head.encode())
        await writer.drain()
        return (await reader.read(4096)).decode()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def test_request_body_size_is_bounded():
    """Oversized or malformed Content-Length: 413/400 + connection close."""

    async def drive(server):
        server_config = ServerConfig(
            host="127.0.0.1", port=0, max_body_bytes=1024, scenario=SCENARIO
        )
        bounded = RoutingServer(server.session, server_config)
        await bounded.start()
        try:
            port = bounded.port
            results = {}
            results["too_large"] = await _raw_request(
                port,
                "POST /route HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\n",
            )
            results["not_a_number"] = await _raw_request(
                port,
                "POST /route HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
            )
            results["negative"] = await _raw_request(
                port,
                "POST /route HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
            )
        finally:
            await bounded.stop()
        return results

    results = _with_server(2, drive)
    assert results["too_large"].startswith("HTTP/1.1 413 ")
    assert "Connection: close" in results["too_large"]
    for key in ("not_a_number", "negative"):
        assert results[key].startswith("HTTP/1.1 400 ")
        assert "Connection: close" in results[key]


async def _read_to_eof(port: int, payload: bytes) -> bytes:
    """Send ``payload`` on one connection; return all bytes until the server closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=5.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def test_chunked_body_is_refused_without_desyncing_framing():
    """A chunked POST gets one 501 and a close; its chunks never parse as a request."""
    chunked = (
        b"POST /route HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"4\r\n[1]\n\r\n0\r\n\r\n"
    )
    pipelined = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    async def drive(server):
        return await _read_to_eof(server.port, chunked + pipelined)

    raw = _with_server(2, drive).decode()
    assert raw.startswith("HTTP/1.1 501 Not Implemented\r\n")
    assert "Connection: close" in raw
    assert raw.count("HTTP/1.1 ") == 1  # EOF after the 501: no second response


def test_client_hanging_up_mid_body_closes_quietly():
    """A body cut short by the peer is EOF: no unhandled handler error."""
    truncated = b"POST /route HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n[1, 2"

    async def drive(server):
        loop = asyncio.get_running_loop()
        seen = []
        loop.set_exception_handler(lambda _loop, context: seen.append(context))
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(truncated)
        await writer.drain()
        writer.write_eof()
        leftover = await asyncio.wait_for(reader.read(), timeout=5.0)
        writer.close()
        await asyncio.sleep(0.05)  # let the handler task's done-callback run
        health = await _read_to_eof(server.port, b"GET /healthz HTTP/1.0\r\n\r\n")
        return leftover, seen, health

    leftover, seen, health = _with_server(2, drive)
    assert leftover == b""
    assert seen == []
    assert health.decode().startswith("HTTP/1.1 200 ")


def test_http10_request_closes_by_default():
    async def drive(server):
        return await _read_to_eof(server.port, b"GET /healthz HTTP/1.0\r\n\r\n")

    raw = _with_server(2, drive).decode()
    assert raw.startswith("HTTP/1.1 200 ")
    assert "Connection: close" in raw
    assert raw.count("HTTP/1.1 ") == 1


def test_http10_request_with_keep_alive_persists():
    request = b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
    closing = b"GET /healthz HTTP/1.0\r\n\r\n"

    async def drive(server):
        return await _read_to_eof(server.port, request + closing)

    raw = _with_server(2, drive).decode()
    first, second = raw.split("HTTP/1.1 ")[1:]
    assert first.startswith("200 ") and "Connection: keep-alive" in first
    assert second.startswith("200 ") and "Connection: close" in second


def test_server_serves_rolling_session_across_window_boundaries():
    """A rolling-horizon server keeps routing past a billing window."""
    n = 10
    rows = _rows(n)

    async def runner():
        session = scenarios.open_rolling_session(
            _scenario(), window_steps=4, max_windows=3
        )
        server = RoutingServer(
            session,
            ServerConfig(host="127.0.0.1", port=0, window_ms=2.0, scenario=SCENARIO),
        )
        await server.start()
        try:
            async with HttpClient("127.0.0.1", server.port) as client:
                bodies = [await client.route(row.tolist()) for row in rows]
                _, health = await client.request("GET", "/healthz")
        finally:
            await server.stop()
        return bodies, health, session

    bodies, health, session = asyncio.run(runner())
    assert [b["step"] for b in bodies] == list(range(n))
    assert health["steps_fed"] == n and health["steps_remaining"] == 2
    assert session.windows_completed == 2  # two full windows banked

    # Each banked window is bit-identical to a direct offline replay.
    direct = scenarios.open_rolling_session(_scenario(), window_steps=4, max_windows=3)
    direct.feed(rows)
    for served, offline in zip(session.results(), direct.results()):
        assert np.array_equal(served.loads, offline.loads)
        assert np.array_equal(served.paid_prices, offline.paid_prices)


def test_open_session_rejects_signal_router_kinds():
    scenario = _scenario()
    for kind in ("carbon", "weather"):
        bad = scenario.derive(router=scenario.router.__class__.of(kind))
        with pytest.raises(Exception, match="incremental session"):
            scenarios.open_session(bad)
