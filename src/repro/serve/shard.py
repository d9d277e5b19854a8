"""Sharded serving: supervised worker processes behind one listening port.

One asyncio server is single-core by construction. To scale the
serving path across cores, :class:`ShardedServer` runs ``N`` worker
processes that each bind the *same* host/port with ``SO_REUSEPORT``:
the kernel hashes each incoming connection's 4-tuple onto one of the
listening sockets, so every client connection — and therefore every
keep-alive request stream — is consistently assigned to exactly one
shard for its whole life. Each shard owns an independent session
(its own billing horizon) and micro-batcher; there is no cross-shard
locking anywhere on the request path.

What *is* shared is observability: a :class:`ShardBoard` — one
``multiprocessing.shared_memory`` block of per-shard int64 counter
rows — that every shard publishes its batcher counters into after
each request *and* on a periodic heartbeat. Any shard's ``/stats``
response then carries a ``"shards"`` aggregate summed across the
whole group plus per-shard liveness, so a load balancer (or the
benchmark) can read group totals from whichever shard its connection
landed on. The board is also the readiness signal: a worker flips its
``ready`` cell after its socket is bound, and the parent's
:meth:`ShardedServer.wait_ready` polls for all of them — failing fast
with the dead shard's id if a worker dies during startup.

The parent reserves the port with a bound-but-not-listening
``SO_REUSEPORT`` socket (resolving ``port=0`` before any worker
spawns; a non-listening socket never receives connections), starts
workers through the ``spawn`` context, and then **supervises** them:
a monitor thread detects dead workers (exitcode first, heartbeat
staleness as the tell for a wedged-but-alive process) and respawns
any worker that had previously become ready, under capped exponential
backoff. Workers that die *before* ever becoming ready are left for
``wait_ready`` to report — a misconfigured scenario must fail loudly,
not respawn in a loop. Shutdown is graceful: SIGTERM lets each worker
drain its in-flight requests (and checkpoint its rolling session when
configured) before the parent escalates to kill.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import socket
import threading
import time

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.batcher import DEFAULT_MAX_QUEUE
from repro.serve.lifecycle import ServeSpec, serve
from repro.serve.server import ServerConfig

__all__ = ["ShardBoard", "ShardedServer"]

#: Per-shard counter row published to the shared board, in order.
#: ``heartbeat_ns`` is the worker's last publish (wall clock, ns);
#: ``restarts`` is written by the *parent* supervisor, never by the
#: worker, so a respawn survives the fresh worker's first publish.
BOARD_FIELDS = (
    "ready",
    "steps_fed",
    "requests_total",
    "batches_total",
    "batch_rows_total",
    "batch_size_max",
    "rejected_total",
    "rejected_backpressure_total",
    "errors_total",
    "cancelled_total",
    "heartbeat_ns",
    "restarts",
)

_HEARTBEAT_COL = BOARD_FIELDS.index("heartbeat_ns")
_RESTARTS_COL = BOARD_FIELDS.index("restarts")
#: Counter fields summed by :meth:`ShardBoard.aggregate` (liveness and
#: heartbeat columns are reduced separately).
_SUM_FIELDS = tuple(
    f for f in BOARD_FIELDS[1:] if f not in ("heartbeat_ns", "restarts")
)

#: A ready shard whose last publish is older than this is flagged
#: stale: its process may be alive but its event loop is not turning.
STALE_AFTER_S = 3.0


class ShardBoard:
    """A shared-memory matrix of per-shard serving counters.

    ``(n_shards, len(BOARD_FIELDS))`` int64 cells. Each shard writes
    only its own row — except the ``restarts`` column, owned by the
    supervising parent — so no locking is needed: every cell has one
    writer, and readers tolerate tearing between rows (the counters
    are monotone).
    """

    def __init__(self, n_shards: int, *, name: str | None = None) -> None:
        from multiprocessing import shared_memory

        if n_shards < 1:
            raise ConfigurationError("a shard board needs at least one shard")
        self.n_shards = int(n_shards)
        self._owner = name is None
        nbytes = self.n_shards * len(BOARD_FIELDS) * 8
        if self._owner:
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        else:
            self._shm = shared_memory.SharedMemory(name=name)
        self._cells = np.ndarray(
            (self.n_shards, len(BOARD_FIELDS)), dtype=np.int64, buffer=self._shm.buf
        )
        if self._owner:
            self._cells[:] = 0

    @property
    def name(self) -> str:
        """The shared-memory block name workers attach by."""
        return self._shm.name

    def publish(self, shard: int, stats, steps_fed: int) -> None:
        """Publish one shard's counters, mark it ready, beat its heart."""
        self._cells[shard, :_HEARTBEAT_COL] = (
            1,
            steps_fed,
            stats.requests_total,
            stats.batches_total,
            stats.batch_rows_total,
            stats.batch_size_max,
            stats.rejected_total,
            stats.rejected_backpressure_total,
            stats.errors_total,
            stats.cancelled_total,
        )
        self._cells[shard, _HEARTBEAT_COL] = time.time_ns()

    def record_restart(self, shard: int) -> None:
        """Parent-side: count one supervisor respawn of ``shard``."""
        self._cells[shard, _RESTARTS_COL] += 1

    def clear_shard(self, shard: int) -> None:
        """Parent-side: zero a dead shard's row (restart count survives)."""
        self._cells[shard, :_RESTARTS_COL] = 0

    def ready_count(self) -> int:
        return int(self._cells[:, 0].sum())

    def _ages_s(self, cells: np.ndarray) -> np.ndarray:
        now = time.time_ns()
        return np.maximum(now - cells[:, _HEARTBEAT_COL], 0) / 1e9

    def aggregate(self, *, stale_after_s: float = STALE_AFTER_S) -> dict:
        """Group totals across every shard (sums; max of the maxima).

        A shard counts as *stale* when it is marked ready but has not
        published within ``stale_after_s`` — its counters are frozen,
        and ``workers_stale``/``stale_shards`` call that out rather
        than letting the aggregate silently stop moving.
        """
        cells = self._cells.copy()
        ages = self._ages_s(cells)
        stale = [
            s
            for s in range(self.n_shards)
            if cells[s, 0] and ages[s] > stale_after_s
        ]
        out = {"workers": self.n_shards, "workers_ready": int(cells[:, 0].sum())}
        for field in _SUM_FIELDS:
            i = BOARD_FIELDS.index(field)
            reduce = max if field == "batch_size_max" else sum
            out[field] = int(reduce(int(v) for v in cells[:, i]))
        out["batch_size_mean"] = (
            out["batch_rows_total"] / out["batches_total"] if out["batches_total"] else 0.0
        )
        out["restarts_total"] = int(cells[:, _RESTARTS_COL].sum())
        out["workers_stale"] = len(stale)
        out["stale_shards"] = stale
        return out

    def per_shard(self, *, stale_after_s: float = STALE_AFTER_S) -> list[dict]:
        """One row per shard, with liveness annotations."""
        cells = self._cells.copy()
        ages = self._ages_s(cells)
        rows = []
        for s in range(self.n_shards):
            row = {field: int(cells[s, i]) for i, field in enumerate(BOARD_FIELDS)}
            row["stale"] = bool(row["ready"] and ages[s] > stale_after_s)
            row["heartbeat_age_ms"] = (
                round(float(ages[s]) * 1000.0, 1) if row["ready"] else None
            )
            rows.append(row)
        return rows

    def close(self, *, unlink: bool = False) -> None:
        del self._cells
        self._shm.close()
        if unlink:
            self._shm.unlink()


def reuse_port_supported() -> bool:
    """Whether this platform can shard a port (``SO_REUSEPORT``)."""
    return hasattr(socket, "SO_REUSEPORT")


def _reserve_port(host: str, port: int) -> tuple[socket.socket, int]:
    """Bind (never listen) a ``SO_REUSEPORT`` socket to hold the port.

    Resolves ``port=0`` to a concrete port before any worker spawns;
    because the socket never listens, the kernel sends it no
    connections — it only keeps the port from being claimed by an
    unrelated process between worker starts.
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except OSError:
        sock.close()
        raise
    return sock, sock.getsockname()[1]


class ShardedServer:
    """``workers`` routing-server processes sharing one host/port.

    Each worker runs :func:`~repro.serve.lifecycle.serve` over the same
    :class:`~repro.serve.lifecycle.ServeSpec` with its own shard's
    :class:`~repro.serve.server.ServerConfig`; both are built (and so
    validated) here, before anything spawns.

    Parameters
    ----------
    scenario_name:
        Registered scenario each worker opens its own session over
        (every shard serves an independent horizon).
    workers:
        Number of shard processes.
    session_steps:
        Horizon per shard (``None``: the scenario's full trace).
    rolling_window / max_windows:
        When ``rolling_window`` is set, each shard serves a
        :func:`~repro.scenarios.open_rolling_session` chain of
        billing windows of that many steps instead of a single
        fixed-horizon session.
    max_queue / drain_deadline_s:
        Per-shard admission bound (``None`` unbounds it) and
        graceful-drain deadline, as in each worker's ``ServerConfig``.
    backoff_base_s / backoff_cap_s:
        The supervisor respawns workers that die after becoming ready,
        under capped exponential backoff between these bounds. Workers
        that die during startup are never respawned —
        :meth:`wait_ready` reports them instead.
    resume / store_dir:
        Rolling shards only: with a store at ``store_dir``, each shard
        checkpoints its session there on SIGTERM, and with ``resume``
        it restarts from that checkpoint.
    """

    def __init__(
        self,
        scenario_name: str,
        *,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        window_ms: float = 5.0,
        max_batch: int = 64,
        session_steps: int | None = None,
        rolling_window: int | None = None,
        max_windows: int | None = None,
        provider: str | None = None,
        max_queue: int | None = DEFAULT_MAX_QUEUE,
        drain_deadline_s: float = 5.0,
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 10.0,
        resume: bool = False,
        store_dir: str | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if not reuse_port_supported():
            raise ConfigurationError(
                "sharded serving needs SO_REUSEPORT, which this platform lacks"
            )
        self.spec = ServeSpec(
            scenario_name,
            steps=session_steps,
            rolling_window=rolling_window,
            max_windows=max_windows,
            provider=provider,
            store_dir=store_dir,
            resume=resume,
        )
        self.config = ServerConfig(
            host=host,
            port=port,
            window_ms=window_ms,
            max_batch=max_batch,
            scenario=scenario_name,
            reuse_port=True,
            n_shards=workers,
            max_queue=max_queue,
            drain_deadline_s=drain_deadline_s,
        )
        self.workers = int(workers)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.port: int | None = None
        self.board: ShardBoard | None = None
        self._reserve: socket.socket | None = None
        self._procs: list[multiprocessing.Process] = []
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._monitor: threading.Thread | None = None
        #: Shards that have been observed ready at least once — the
        #: supervisor's respawn eligibility set.
        self._ever_ready: set[int] = set()
        #: Consecutive respawns per shard since it last looked healthy.
        self._backoff_n: dict[int, int] = {}
        self._restarts: dict[int, int] = {}

    @property
    def pids(self) -> list[int | None]:
        """Current worker pids, by shard index."""
        with self._lock:
            return [proc.pid for proc in self._procs]

    @property
    def restarts(self) -> dict[int, int]:
        """Supervisor respawn counts, by shard index."""
        return dict(self._restarts)

    def start(self) -> None:
        self._reserve, self.port = _reserve_port(self.config.host, self.config.port)
        self.board = ShardBoard(self.workers)
        self._stop_event.clear()
        for shard in range(self.workers):
            self._procs.append(self._spawn(shard))
        self._monitor = threading.Thread(
            target=self._supervise, name="shard-supervisor", daemon=True
        )
        self._monitor.start()

    def _spawn(self, shard: int) -> multiprocessing.Process:
        config = dataclasses.replace(self.config, port=self.port, shard_index=shard)
        proc = self._ctx.Process(
            target=_worker_main, args=(self.spec, config, self.board.name), daemon=True
        )
        proc.start()
        return proc

    # -- supervision -----------------------------------------------------------

    def _supervise(self) -> None:
        """Monitor loop: respawn ready-then-dead workers with backoff.

        Runs in a parent thread until :meth:`stop`. A worker is only
        eligible for respawn once it has been observed ready — a
        worker that cannot even start must surface as a
        ``wait_ready`` failure, not flap forever. Each respawn clears
        the shard's board row (so staleness and readiness restart
        from scratch) and bumps its ``restarts`` cell; backoff doubles
        per consecutive respawn and resets once the replacement
        becomes ready again.
        """
        while not self._stop_event.wait(0.1):
            board = self.board
            if board is None:
                return
            for shard in range(self.workers):
                with self._lock:
                    if shard >= len(self._procs):
                        continue
                    proc = self._procs[shard]
                alive = proc.is_alive()
                # The board's ready cell is the worker's own durable
                # declaration — it survives the worker's death (until a
                # respawn clears the row), so even a worker that crashes
                # before the first supervision poll stays eligible.
                ready = bool(board._cells[shard, 0])
                if ready:
                    self._ever_ready.add(shard)
                if alive:
                    if ready:
                        self._backoff_n[shard] = 0
                    continue
                if shard not in self._ever_ready:
                    continue
                n = self._backoff_n.get(shard, 0)
                delay = min(self.backoff_cap_s, self.backoff_base_s * (2**n))
                if self._stop_event.wait(delay):
                    return
                with self._lock:
                    if (
                        self._stop_event.is_set()
                        or shard >= len(self._procs)
                        or self._procs[shard] is not proc
                    ):
                        continue
                    proc.join(timeout=0)
                    board.clear_shard(shard)
                    board.record_restart(shard)
                    self._backoff_n[shard] = n + 1
                    self._restarts[shard] = self._restarts.get(shard, 0) + 1
                    self._procs[shard] = self._spawn(shard)

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until every shard has bound its socket and published.

        Fails fast — naming the dead shard — when a worker exits
        before ever publishing readiness, instead of burning the whole
        timeout on a startup that can never complete.
        """
        assert self.board is not None
        deadline = time.monotonic() + timeout
        while self.board.ready_count() < self.workers:
            with self._lock:
                procs = list(self._procs)
            for shard, proc in enumerate(procs):
                if not proc.is_alive() and not self.board._cells[shard, 0]:
                    exitcode = proc.exitcode
                    self.stop()
                    raise RuntimeError(
                        f"shard {shard} (pid={proc.pid}) exited with {exitcode} "
                        "before becoming ready"
                    )
            if time.monotonic() > deadline:
                self.stop()
                raise TimeoutError(f"shards not ready within {timeout}s")
            time.sleep(0.05)

    def wait_restarted(self, shard: int, *, timeout: float = 30.0) -> None:
        """Block until ``shard``'s replacement worker is ready again."""
        assert self.board is not None
        deadline = time.monotonic() + timeout
        while not self.board._cells[shard, 0]:
            if time.monotonic() > deadline:
                raise TimeoutError(f"shard {shard} not respawned within {timeout}s")
            time.sleep(0.05)

    def stop(self, timeout: float = 10.0) -> None:
        self._stop_event.set()
        if self._monitor is not None:
            self._monitor.join(timeout=timeout)
            self._monitor = None
        with self._lock:
            procs = list(self._procs)
        for proc in procs:
            if proc.is_alive() and proc.pid is not None:
                os.kill(proc.pid, signal.SIGTERM)
        # The join deadline must outlive a worker's graceful drain, or
        # the parent kills shards mid-checkpoint.
        join_s = max(timeout, self.config.drain_deadline_s + 5.0)
        for proc in procs:
            proc.join(timeout=join_s)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=timeout)
        with self._lock:
            self._procs = []
        if self.board is not None:
            self.board.close(unlink=True)
            self.board = None
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None
        self.port = None

    def __enter__(self) -> "ShardedServer":
        self.start()
        self.wait_ready()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def _worker_main(spec: ServeSpec, config: ServerConfig, board_name: str) -> None:
    """Spawned shard entry point: serve until SIGTERM."""
    board = ShardBoard(config.n_shards, name=board_name)
    try:
        status = serve(spec, config, board=board)
    finally:
        board.close()
    if status:
        raise SystemExit(status)
