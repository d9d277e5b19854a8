"""Routing-as-a-service: the online serving layer.

The offline engine replays whole traces; this package serves routing
decisions to concurrent clients, one step at a time, on top of the
incremental :class:`~repro.sim.session.RoutingSession`:

* :class:`~repro.serve.batcher.MicroBatcher` — coalesces concurrent
  requests into vectorised session feed calls inside a bounded
  time/size window, refusing admission (``429``/``503``) once its
  bounded queue fills or a drain begins;
* :class:`~repro.serve.server.RoutingServer` — the long-lived asyncio
  HTTP server (``/route``, ``/healthz``, ``/stats``), with graceful
  drain on stop;
* :func:`~repro.serve.lifecycle.serve` — the one serving lifecycle
  (open the :class:`~repro.serve.lifecycle.ServeSpec`'s session under
  its provider, resume, fault-wrap, serve until SIGTERM, drain,
  checkpoint) that ``repro serve`` runs in-process and every shard
  worker runs in its own process;
* :class:`~repro.serve.shard.ShardedServer` — ``--workers N`` worker
  processes sharding one port via ``SO_REUSEPORT``, publishing
  counters and heartbeats to a shared
  :class:`~repro.serve.shard.ShardBoard`, supervised and respawned by
  the parent when they die;
* :mod:`~repro.serve.checkpoint` — park a rolling session's banked
  windows in the artifact store on drain, resume them bit-identically
  with ``repro serve --resume``;
* :class:`~repro.serve.client.HttpClient` — the dependency-free
  client the tests, smoke run, and serving benchmark share, with
  opt-in ``Retry-After``-honouring retries;
* :func:`~repro.serve.smoke.run_smoke` — the ``repro serve --smoke``
  self-test CI boots on every push — and
  :func:`~repro.serve.smoke.run_chaos`, the deterministic
  fault-injection matrix behind ``--smoke --chaos``.

See ``docs/serving.md`` for the API reference, tuning guide, and
operations notes.
"""

from repro.serve.batcher import (
    BackpressureError,
    BatcherStats,
    MicroBatcher,
    ServerDrainingError,
)
from repro.serve.checkpoint import (
    SessionCheckpointSpec,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.client import HttpClient
from repro.serve.lifecycle import ServeSpec, serve
from repro.serve.server import RoutingServer, ServerConfig
from repro.serve.shard import ShardBoard, ShardedServer
from repro.serve.smoke import run_chaos, run_smoke

__all__ = [
    "BackpressureError",
    "BatcherStats",
    "MicroBatcher",
    "ServerDrainingError",
    "HttpClient",
    "RoutingServer",
    "ServerConfig",
    "ServeSpec",
    "serve",
    "ShardBoard",
    "ShardedServer",
    "SessionCheckpointSpec",
    "load_checkpoint",
    "save_checkpoint",
    "run_smoke",
    "run_chaos",
]
