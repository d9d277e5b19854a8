"""The long-lived routing server: asyncio + hand-rolled HTTP/1.1.

``RoutingServer`` fronts one :class:`~repro.sim.session.RoutingSession`
with a :class:`~repro.serve.batcher.MicroBatcher` and speaks a minimal
HTTP/1.1 (stdlib asyncio streams, keep-alive, ``Content-Length``
bodies — no framework, no new dependencies):

``POST /route``
    Body ``{"demand": [...]}`` — either a full per-state list in
    ``session.state_codes`` order or a ``{state_code: hits_per_s}``
    mapping (absent states are zero). Responds with the step index the
    request was routed at, the step's wall-clock, per-cluster loads
    and paid prices, and (with ``"full": true``) the whole
    state-by-cluster allocation matrix. ``400`` on malformed demand,
    ``409`` once the session horizon is exhausted, ``429`` (with a
    computed ``Retry-After``) when the bounded queue refuses admission,
    ``503`` while the server drains toward shutdown.
``GET /healthz``
    Liveness + horizon progress (and the shard index when sharded).
``GET /stats``
    Batcher counters (requests, batches, batch-size max/mean,
    rejections, cancellations), the serving configuration, and — when
    the server is one shard of a :class:`~repro.serve.shard.ShardBoard`
    group — the aggregate counters across every shard.

Request bodies are bounded (``ServerConfig.max_body_bytes``): an
oversized or unparseable ``Content-Length`` gets a ``413``/``400``
and the connection is closed, because the body was never read and
keep-alive framing cannot be trusted past it.

Responses are JSON with full-precision floats (``repr`` round-trip),
so a client replaying its recorded demand through an offline session
can check the served loads *bitwise* — the serving benchmark does.

The session behind the server may be a plain
:class:`~repro.sim.session.RoutingSession` (one billing window, then
``409``) or a :class:`~repro.sim.rolling.RollingSession` chaining
windows — the server only speaks the shared feeding interface, and
reports ``steps_remaining: null`` for an open-ended rolling horizon.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.batcher import (
    DEFAULT_MAX_QUEUE,
    BackpressureError,
    MicroBatcher,
    ServerDrainingError,
)
from repro.sim.rolling import RollingSession
from repro.sim.session import RoutingSession, SessionExhaustedError

__all__ = ["RoutingServer", "ServerConfig"]

_MAX_HEADER_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1024 * 1024


@dataclass(frozen=True)
class ServerConfig:
    """Network + micro-batch settings for one server instance."""

    host: str = "127.0.0.1"
    port: int = 8351
    window_ms: float = 5.0
    max_batch: int = 64
    scenario: str = ""
    max_body_bytes: int = _MAX_BODY_BYTES
    reuse_port: bool = False
    shard_index: int = 0
    n_shards: int = 1
    #: Admission bound on the batcher queue; ``None`` unbounds it.
    max_queue: int | None = DEFAULT_MAX_QUEUE
    #: Seconds a graceful :meth:`RoutingServer.stop` waits for
    #: in-flight requests before failing whatever remains.
    drain_deadline_s: float = 5.0

    def __post_init__(self) -> None:
        # Refused here, before any server or shard worker is built; the
        # messages name the ``repro serve`` flag that sets each field.
        if self.window_ms < 0:
            raise ConfigurationError(
                f"--batch-window-ms must be non-negative, got {self.window_ms}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(f"--max-batch must be at least 1, got {self.max_batch}")
        if self.max_queue is not None and self.max_queue < 1:
            raise ConfigurationError(
                f"--max-queue must be at least 1 (or unbounded), got {self.max_queue}"
            )


class _HttpError(Exception):
    def __init__(
        self,
        status: int,
        message: str,
        *,
        close: bool = False,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        #: The connection cannot be kept alive after this error (the
        #: request body was never consumed, so framing is lost).
        self.close = close
        #: Seconds for a ``Retry-After`` header (429/503 responses).
        self.retry_after = retry_after


class RoutingServer:
    """One session, one batcher, one listening socket."""

    def __init__(
        self,
        session: RoutingSession | RollingSession,
        config: ServerConfig | None = None,
        *,
        board=None,
    ) -> None:
        self.config = config or ServerConfig()
        self.session = session
        self.batcher = MicroBatcher(
            session,
            window_ms=self.config.window_ms,
            max_batch=self.config.max_batch,
            max_queue=self.config.max_queue,
        )
        #: Optional :class:`~repro.serve.shard.ShardBoard` this server
        #: publishes its counters to (sharded deployments only).
        self.board = board
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        await self.batcher.start()
        kwargs = {"reuse_port": True} if self.config.reuse_port else {}
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port, **kwargs
        )
        self._publish()

    async def stop(self, *, drain: bool = False) -> bool:
        """Stop the server; returns ``True`` when nothing was dropped.

        With ``drain=True`` (the graceful path, used on SIGTERM) the
        listener closes first so no new connections land, the batcher
        refuses new admissions with ``503``, and in-flight requests run
        to completion under ``config.drain_deadline_s``; whatever the
        deadline strands is failed with a clean shutdown error. With
        ``drain=False`` every unresolved request is failed immediately.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain:
            drained = await self.batcher.drain(self.config.drain_deadline_s)
        else:
            await self.batcher.stop()
            drained = True
        self._publish()
        return drained

    # -- HTTP plumbing ---------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
                except asyncio.LimitOverrunError:
                    await self._respond(writer, 431, {"error": "headers too large"})
                    return
                if len(head) > _MAX_HEADER_BYTES:
                    await self._respond(writer, 431, {"error": "headers too large"})
                    return
                headers: dict[str, str] = {}
                must_close = False
                try:
                    method, path, version, headers = _parse_head(head)
                    if "transfer-encoding" in headers:
                        # A chunked body is still on the socket; reading
                        # it as the next request would desync framing.
                        raise _HttpError(
                            501, "Transfer-Encoding is not supported", close=True
                        )
                    body = b""
                    length = _parse_content_length(
                        headers.get("content-length", "0"), self.config.max_body_bytes
                    )
                    if length:
                        try:
                            body = await reader.readexactly(length)
                        except asyncio.IncompleteReadError:
                            return  # hung up mid-body: EOF, as mid-head
                    status, payload = await self._dispatch(method, path, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": exc.message}
                    must_close = exc.close
                    retry_after = exc.retry_after
                    if retry_after is not None:
                        payload["retry_after_s"] = retry_after
                else:
                    retry_after = None
                keep_alive = _wants_keep_alive(version, headers) and not must_close
                await self._respond(
                    writer, status, payload, keep_alive=keep_alive, retry_after=retry_after
                )
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool = False,
        retry_after: float | None = None,
    ) -> None:
        reasons = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            409: "Conflict",
            413: "Payload Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error",
            501: "Not Implemented",
            503: "Service Unavailable",
        }
        # Retry-After must be a whole number of seconds on the wire
        # (RFC 9110); the fractional estimate rides in the JSON body.
        extra = (
            f"Retry-After: {max(1, math.ceil(retry_after))}\r\n"
            if retry_after is not None
            else ""
        )
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode()
        writer.write(head + body)
        await writer.drain()

    # -- endpoints -------------------------------------------------------------

    def _publish(self) -> None:
        if self.board is not None:
            self.board.publish(
                self.config.shard_index, self.batcher.stats, self.session.steps_fed
            )

    async def _dispatch(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        try:
            return await self._dispatch_inner(method, path, body)
        finally:
            self._publish()

    async def _dispatch_inner(self, method: str, path: str, body: bytes) -> tuple[int, dict]:
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "use GET")
            return 200, self._healthz()
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "use GET")
            return 200, self._stats()
        if path == "/route":
            if method != "POST":
                raise _HttpError(405, "use POST")
            return await self._route(body)
        raise _HttpError(404, f"unknown path {path!r}")

    def _healthz(self) -> dict:
        payload = {
            "status": "draining" if self.batcher.draining else "ok",
            "steps_fed": self.session.steps_fed,
            "steps_remaining": self.session.steps_remaining,
            "exhausted": self.session.exhausted,
        }
        if self.config.n_shards > 1:
            payload["shard"] = self.config.shard_index
            payload["workers"] = self.config.n_shards
        return payload

    def _stats(self) -> dict:
        stats = self.batcher.stats
        payload = {
            "requests_total": stats.requests_total,
            "batches_total": stats.batches_total,
            "batch_size_max": stats.batch_size_max,
            "batch_size_mean": stats.batch_size_mean,
            "batch_rows_total": stats.batch_rows_total,
            "rejected_total": stats.rejected_total,
            "rejected_backpressure_total": stats.rejected_backpressure_total,
            "errors_total": stats.errors_total,
            "cancelled_total": stats.cancelled_total,
            "queue_depth": self.batcher.queue_depth,
            "draining": self.batcher.draining,
            "steps_fed": self.session.steps_fed,
            "steps_remaining": self.session.steps_remaining,
            "window_ms": self.config.window_ms,
            "max_batch": self.config.max_batch,
            "max_queue": self.config.max_queue,
            "scenario": self.config.scenario,
            "n_states": len(self.session.state_codes),
            "clusters": list(self.session.cluster_labels),
        }
        if self.config.n_shards > 1:
            payload["shard"] = self.config.shard_index
        if self.board is not None:
            self._publish()
            payload["shards"] = self.board.aggregate()
            payload["per_shard"] = self.board.per_shard()
        return payload

    def _parse_demand(self, raw: object) -> np.ndarray:
        codes = self.session.state_codes
        if isinstance(raw, dict):
            row = np.zeros(len(codes))
            index = {code: i for i, code in enumerate(codes)}
            for code, value in raw.items():
                if code not in index:
                    raise _HttpError(400, f"unknown state code {code!r}")
                row[index[code]] = value
        elif isinstance(raw, list):
            if len(raw) != len(codes):
                raise _HttpError(
                    400, f"demand list must have {len(codes)} entries, got {len(raw)}"
                )
            row = np.asarray(raw, dtype=float)
        else:
            raise _HttpError(400, "demand must be a list or {state: hits/s} mapping")
        if not np.all(np.isfinite(row)) or np.any(row < 0):
            raise _HttpError(400, "demand must be finite and non-negative")
        return row

    async def _route(self, body: bytes) -> tuple[int, dict]:
        try:
            payload = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict) or "demand" not in payload:
            raise _HttpError(400, 'body must be {"demand": ...}')
        row = self._parse_demand(payload["demand"])
        try:
            step, allocation = await self.batcher.route(row)
        except ServerDrainingError as exc:
            raise _HttpError(503, str(exc), retry_after=exc.retry_after_s) from exc
        except BackpressureError as exc:
            raise _HttpError(429, str(exc), retry_after=exc.retry_after_s) from exc
        except SessionExhaustedError as exc:
            raise _HttpError(409, str(exc)) from exc
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # An engine/provider failure (e.g. an injected fault) fails
            # this request with a 500 — it must not kill the connection
            # handler and strand every other request on the socket.
            raise _HttpError(500, f"{type(exc).__name__}: {exc}") from exc

        loads = allocation.sum(axis=0)
        labels = self.session.cluster_labels
        response = {
            "step": step,
            "shard": self.config.shard_index,
            "clock": self.session.clock(step).isoformat(),
            "loads": {label: float(loads[i]) for i, label in enumerate(labels)},
            "prices": {
                label: float(price)
                for label, price in zip(labels, self.session.paid_prices(step))
            },
        }
        if payload.get("full"):
            response["allocation"] = {
                "state_codes": list(self.session.state_codes),
                "cluster_labels": list(labels),
                "matrix": np.asarray(allocation, dtype=float).tolist(),
            }
        return 200, response


def _parse_content_length(raw: str, max_body_bytes: int) -> int:
    """Validate a ``Content-Length`` header.

    Errors force a connection close (``_HttpError.close``): the body —
    however long it really is — is still unread on the socket, so
    keep-alive framing cannot be re-synchronised.
    """
    try:
        length = int(raw)
    except ValueError:
        raise _HttpError(400, f"invalid Content-Length {raw!r}", close=True) from None
    if length < 0:
        raise _HttpError(400, f"invalid Content-Length {raw!r}", close=True)
    if length > max_body_bytes:
        raise _HttpError(
            413, f"body of {length} bytes exceeds the {max_body_bytes}-byte limit", close=True
        )
    return length


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, path, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise _HttpError(400, "malformed request line") from exc
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method, path, version, headers


def _wants_keep_alive(version: str, headers: dict[str, str]) -> bool:
    """Whether the client asked to reuse the connection (RFC 9112 §9.3).

    HTTP/1.1 connections persist unless the client sends ``Connection:
    close``; HTTP/1.0 ones close unless it sends ``Connection:
    keep-alive``.
    """
    tokens = {token.strip().lower() for token in headers.get("connection", "").split(",")}
    if "close" in tokens:
        return False
    return version != "HTTP/1.0" or "keep-alive" in tokens
