"""Workload ``route``: open-loop Poisson arrivals on ``/route``.

Routing is a service: independent users send demand whenever they have
it, whether or not the server kept up with the last request. So the
load is open-loop — a seeded Poisson schedule at :data:`RATE` requests
per second — sent from this process to a ``repro serve`` server in
another process, over a pool of keep-alive connections. Each request's
latency counts from when it was *due*, not from when it was sent, so a
stall is charged to every request it delays (no coordinated omission);
how late the generator itself ran is printed with the summary.

The server is the shipped CLI serving ``serve-smoke`` (the price router)
with rolling 288-step billing windows over a fresh artifact store. Its
micro-batch window is 0: requests already queued still share a batch,
but none waits for company. With the default 5 ms window the median
request flips between the sole-request path and a full window wait
from one run to the next, so the median would measure that coin flip.
Set-up boots the server :data:`BOOTS` times, cold, and reports the
median time to listening, each scaled to the nominal host speed (see
``speed.py``); the last boot serves the run. With
``--trace 1`` that server runs with its layer map traced (see
``server.py``).

At 100 requests/s the server is lightly loaded: the run measures the
path one request takes, not a queue. At 200/s and above, queueing on
the two-CPU reference box makes the median swing by a factor of two
between runs of the same seed.

The seed draws the arrival schedule and the demand rows. Correctness:
every request is answered ``200``, the steps served are exactly
``0..n-1``, the served per-cluster loads equal, bit for bit, an offline
rolling session fed the same rows in step order, and the server's
``/stats`` buckets reconcile with the requests sent.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import signal
import socket
import statistics
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np

from common import ROOT, Outcome, Scratch, program_env
from layers import per_layer
from speed import SpeedProbe

RATE = 100.0
CONNECTIONS = 32
SCENARIO = "serve-smoke"
WINDOW_STEPS = 288
BATCH_WINDOW_MS = 0.0
BOOTS = 5

#: The server's steps run from 2008-12-01 to the market calendar's end.
MAX_REQUESTS = 8000


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` child process, stopped on exit.

    Ready means accepting connections on its port: ``repro serve``
    starts the micro-batcher before it binds.
    """

    def __init__(self, store: Path, trace_out: Path | None = None) -> None:
        self.port = _free_port()
        argv = [sys.executable, str(Path(__file__).with_name("server.py"))]
        if trace_out is not None:
            argv += ["--trace-out", str(trace_out)]
        argv += [
            "serve", "--scenario", SCENARIO, "--port", str(self.port),
            "--rolling-window", str(WINDOW_STEPS), "--batch-window-ms", str(BATCH_WINDOW_MS),
            "--artifacts", str(store),
        ]  # fmt: skip
        self._log = store.with_suffix(".log")
        t0 = time.perf_counter()
        with open(self._log, "w") as log:
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=program_env(), stdout=log, stderr=subprocess.STDOUT
            )
        try:
            self._wait_listening(deadline=t0 + 120.0)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - t0

    def _wait_listening(self, deadline: float) -> None:
        while self.proc.poll() is None and time.perf_counter() < deadline:
            try:
                socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                return
            except OSError:
                time.sleep(0.01)
        raise RuntimeError(f"server did not start listening:\n{self._log.read_text()}")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it will not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        return self.proc.returncode

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def schedule(seed: int, seconds: float) -> list[float]:
    """Seeded Poisson arrival offsets: ``RATE * seconds`` of them, in ``seconds``.

    Exponential gaps, rescaled so the last arrival lands at ``seconds``:
    every seed sends the same number of requests at the same mean rate,
    with its own bursts and lulls.
    """
    rng = random.Random(seed)
    n = max(1, min(MAX_REQUESTS, round(RATE * seconds)))
    arrivals = list(itertools.accumulate(rng.expovariate(RATE) for _ in range(n)))
    scale = seconds / arrivals[-1]
    return [t * scale for t in arrivals]


def demand_rows(seed: int, n: int) -> np.ndarray:
    """``n`` five-minute demand rows from the scenario's traffic model."""
    from repro import scenarios
    from repro.scenarios.spec import TraceSpec

    market = scenarios.get(SCENARIO).market
    spec = TraceSpec(kind="five-minute", start=datetime(2008, 12, 1), n_steps=n, seed=3000 + seed)
    return scenarios.trace(spec, market).demand[:n]


async def drive(port: int, rows: np.ndarray, offsets: list[float]) -> dict:
    """Send every row at its scheduled offset; collect what came back."""
    from repro.serve import HttpClient

    loop = asyncio.get_running_loop()
    n = len(offsets)
    idle: asyncio.Queue = asyncio.Queue()
    for _ in range(CONNECTIONS):
        client = HttpClient("127.0.0.1", port)
        await client.connect()
        idle.put_nowait(client)
    latency = [0.0] * n
    late = [0.0] * n
    bodies: list[dict | None] = [None] * n

    async def send(i: int, due: float) -> None:
        client = await idle.get()
        late[i] = loop.time() - due
        try:
            bodies[i] = await client.route(rows[i].tolist())
            latency[i] = loop.time() - due
        except (RuntimeError, OSError, asyncio.IncompleteReadError):
            await client.close()
            client = HttpClient("127.0.0.1", port)
            await client.connect()
        finally:
            idle.put_nowait(client)

    start = loop.time() + 0.05
    tasks = []
    for i, offset in enumerate(offsets):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(send(i, due)))
    await asyncio.gather(*tasks)

    clients = [idle.get_nowait() for _ in range(CONNECTIONS)]
    try:
        _, stats = await clients[0].request("GET", "/stats")
    finally:
        for client in clients:
            await client.close()
    return {"latency": latency, "late": late, "bodies": bodies, "stats": stats}


def check(rows: np.ndarray, bodies: list[dict | None], stats: dict) -> bool:
    """Served loads bitwise equal to an offline replay; stats reconcile."""
    from repro import scenarios

    n = len(bodies)
    if any(body is None for body in bodies):
        return False
    steps = [body["step"] for body in bodies]
    if sorted(steps) != list(range(n)):
        return False
    roller = scenarios.open_rolling_session(scenarios.get(SCENARIO), window_steps=WINDOW_STEPS)
    labels = roller.cluster_labels
    by_step = np.empty_like(rows)
    served = np.empty((n, len(labels)))
    for i, body in enumerate(bodies):
        by_step[body["step"]] = rows[i]
        served[body["step"]] = [body["loads"][label] for label in labels]
    replayed = roller.feed(by_step).sum(axis=1)
    buckets = (
        stats["batch_rows_total"]
        + stats["rejected_total"]
        + stats["rejected_backpressure_total"]
        + stats["errors_total"]
        + stats["cancelled_total"]
    )
    return (
        bool(np.array_equal(served, replayed))
        and stats["requests_total"] == buckets
        and stats["batch_rows_total"] == n
    )


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    offsets = schedule(seed, seconds)
    rows = demand_rows(seed, len(offsets))
    with Scratch() as scratch:
        probe = SpeedProbe()
        boots = []
        for _ in range(BOOTS - 1):
            with Server(scratch.fresh("store")) as server:
                boots.append(probe.scale(server.boot_s))
        trace_out = scratch.path / "layers.json" if trace else None
        with Server(scratch.fresh("store"), trace_out) as server:
            boots.append(probe.scale(server.boot_s))
            result = asyncio.run(drive(server.port, rows, offsets))
            status = server.stop()
        layers_snapshot = json.loads(trace_out.read_text()) if trace else None

    bodies = result["bodies"]
    ok = [i for i, body in enumerate(bodies) if body is not None]
    latencies = [result["latency"][i] for i in ok]
    latency_ms = np.asarray(latencies) * 1000.0
    late_ms = np.asarray(result["late"]) * 1000.0
    batches = result["stats"]["batches_total"]
    print(
        f"route: {len(ok)}/{len(bodies)} ok at {RATE:g}/s open loop; latency p50/p90/p99 "
        + "/".join(f"{np.percentile(latency_ms, q):.3f}" for q in (50, 90, 99))
        + " ms; generator late p50/p99 "
        + "/".join(f"{np.percentile(late_ms, q):.3f}" for q in (50, 99))
        + f" ms; {batches} batches, mean {len(ok) / max(batches, 1):.2f} rows"
    )
    return Outcome(
        latencies_s=latencies,
        units=len(ok),
        setup_s=statistics.median(boots),
        attempted=len(bodies),
        failed=len(bodies) - len(ok),
        correct=status == 0 and check(rows, bodies, result["stats"]),
        layers=per_layer(layers_snapshot, len(ok)) if trace else None,
    )
