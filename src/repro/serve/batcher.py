"""Micro-batching bridge between concurrent requests and the session.

The server accepts many concurrent ``/route`` requests, but a
:class:`~repro.sim.session.RoutingSession` consumes demand as an
ordered sequence of steps. The :class:`MicroBatcher` is the bridge:
requests enqueue their demand rows, a single collector task drains the
queue in arrival order, coalesces up to ``max_batch`` rows arriving
within a bounded ``window_ms`` wait, and feeds them to the session as
one :meth:`~repro.sim.session.RoutingSession.feed` call — one
vectorised ``allocate_batch`` pass instead of N one-row passes.

Because feeding ``[a, b]`` in one call is bit-identical to feeding
``a`` then ``b`` (the session contract), the batch window is purely a
latency/throughput trade: widening it amortises router calls across
more requests without changing any response. Only the collector task
ever touches the session, so no locking is needed and step indices are
assigned in strict arrival order.

Two refinements keep the trade honest:

* A lone client never pays the window. When the queue is empty and no
  other request is unresolved, the collector closes the batch
  immediately — batching exists to amortise *concurrency*, and with
  one client there is nothing to amortise.
* A request whose future is already done (the client gave up) is
  dropped before the batch is sized, so cancelled requests never burn
  horizon steps.

The queue is **bounded** (``max_queue``): when a slow session lets the
backlog reach the bound, new requests are refused at admission with
:class:`BackpressureError` carrying a computed retry hint (backlog ×
the observed per-row feed time), instead of queueing without limit.
During a graceful :meth:`drain` the batcher refuses *all* new work
(:class:`ServerDrainingError`) while in-flight requests run to
completion under a deadline; whatever the deadline strands is failed
with a clean shutdown error — a client never hangs on a draining
server.

Every request lands in exactly one :class:`BatcherStats` bucket once
resolved — ``batch_rows_total`` (routed), ``rejected_total`` (horizon
exhausted, or shutdown), ``rejected_backpressure_total`` (refused at
admission: queue full or draining), ``errors_total`` (its feed call
raised), or ``cancelled_total`` (client gave up first) — so the
counters reconcile with ``requests_total`` whenever the batcher is
quiescent.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError
from repro.sim.rolling import RollingSession
from repro.sim.session import RoutingSession, SessionExhaustedError

__all__ = ["MicroBatcher", "BatcherStats", "BackpressureError", "ServerDrainingError"]

#: Queue bound when the caller does not choose one. Deep enough that a
#: healthy engine (sub-ms per row) never hits it under the benchmark's
#: closed-loop load; shallow enough that a stalled engine refuses in
#: milliseconds instead of accumulating an unbounded backlog.
DEFAULT_MAX_QUEUE = 256


class BackpressureError(ReproError):
    """A request refused at admission because the queue is full.

    ``retry_after_s`` is the batcher's estimate of when capacity will
    exist again: the current backlog times the observed per-row feed
    time (an EWMA), plus one batch window.
    """

    def __init__(self, message: str, *, retry_after_s: float) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServerDrainingError(BackpressureError):
    """A request refused because the server is draining or stopped."""


@dataclass
class BatcherStats:
    """Running counters the ``/stats`` endpoint reports."""

    requests_total: int = 0
    batches_total: int = 0
    batch_size_max: int = 0
    batch_rows_total: int = 0
    rejected_total: int = 0
    rejected_backpressure_total: int = 0
    errors_total: int = 0
    cancelled_total: int = 0

    @property
    def batch_size_mean(self) -> float:
        if self.batches_total == 0:
            return 0.0
        return self.batch_rows_total / self.batches_total

    @property
    def resolved_total(self) -> int:
        """Requests accounted to a terminal bucket.

        Equals ``requests_total`` minus the requests still queued or
        in flight.
        """
        return (
            self.batch_rows_total
            + self.rejected_total
            + self.rejected_backpressure_total
            + self.errors_total
            + self.cancelled_total
        )

    def record_batch(self, size: int) -> None:
        self.batches_total += 1
        self.batch_rows_total += size
        self.batch_size_max = max(self.batch_size_max, size)


class MicroBatcher:
    """Coalesce concurrent routing requests into session feed calls.

    Parameters
    ----------
    session:
        The incremental engine state this batcher drives — a
        :class:`RoutingSession` or a
        :class:`~repro.sim.rolling.RollingSession` (whose horizon may
        be open-ended). The batcher assumes exclusive ownership:
        nothing else may feed it.
    window_ms:
        How long the collector waits for more requests after the first
        one arrives, before closing the batch. ``0`` disables
        coalescing (every request becomes its own feed call). A sole
        in-flight request skips the window either way.
    max_batch:
        Hard cap on rows per feed call; a full batch closes
        immediately without waiting out the window.
    max_queue:
        Admission bound: a request arriving while this many are
        already queued is refused with :class:`BackpressureError`
        instead of enqueued. ``None`` disables the bound (the pre-
        backpressure behaviour).
    """

    def __init__(
        self,
        session: RoutingSession | RollingSession,
        *,
        window_ms: float = 5.0,
        max_batch: int = 64,
        max_queue: int | None = DEFAULT_MAX_QUEUE,
    ) -> None:
        if window_ms < 0:
            raise ValueError("window_ms must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be at least 1 (or None to unbound)")
        self.session = session
        self.window_ms = float(window_ms)
        self.max_batch = int(max_batch)
        self.max_queue = None if max_queue is None else int(max_queue)
        self.stats = BatcherStats()
        self._queue: asyncio.Queue = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._unresolved = 0
        self._draining = False
        #: EWMA of seconds the session spends per routed row; seeds the
        #: Retry-After estimate before the first batch completes.
        self._row_seconds: float | None = None

    @property
    def unresolved(self) -> int:
        """Requests submitted whose futures have not resolved yet."""
        return self._unresolved

    @property
    def queue_depth(self) -> int:
        """Requests enqueued but not yet picked into a batch."""
        return self._queue.qsize()

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` or :meth:`stop` has begun."""
        return self._draining

    def retry_after_s(self) -> float:
        """Seconds a refused client should wait before retrying.

        Backlog (queued + in flight) times the observed per-row feed
        time, plus one batch window — a service-rate estimate, not a
        constant, so a deeply backed-up shard advertises a longer
        wait than a briefly saturated one.
        """
        per_row = self._row_seconds
        if per_row is None:
            per_row = (self.window_ms / 1000.0) / max(self.max_batch, 1)
        backlog = self._queue.qsize() + self._unresolved
        return round(max(0.05, backlog * per_row + self.window_ms / 1000.0), 3)

    async def start(self) -> None:
        """Start the collector task (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._collect())

    async def stop(self) -> None:
        """Cancel the collector and fail every unresolved request.

        Requests mid-feed when the cancel lands (the collector was
        between dequeuing a batch and resolving its futures) are
        failed too — a client must never hang on a stopped batcher.
        New :meth:`route` calls after stop are refused at admission
        (they would otherwise enqueue onto a queue nobody drains).
        """
        self._draining = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while not self._queue.empty():
            _, fut = self._queue.get_nowait()
            self._reject(fut, "server shutting down")

    async def drain(self, timeout: float = 5.0) -> bool:
        """Graceful shutdown: finish in-flight work, then stop.

        Refuses new admissions immediately (they get
        :class:`ServerDrainingError`), lets the collector keep feeding
        whatever is already queued or mid-batch, and waits up to
        ``timeout`` seconds for every outstanding future to resolve.
        Whatever the deadline strands is then failed with a clean
        shutdown error by :meth:`stop` — no awaiter is left hanging.

        Returns ``True`` when every in-flight request completed inside
        the deadline.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + max(0.0, timeout)
        while self._unresolved > 0 and loop.time() < deadline:
            await asyncio.sleep(0.005)
        drained = self._unresolved == 0
        await self.stop()
        return drained

    async def route(self, demand: np.ndarray) -> tuple[int, np.ndarray]:
        """Submit one step of demand; resolves to ``(step, allocation)``.

        ``step`` is the horizon position this request was routed at
        (assigned in arrival order) and ``allocation`` the step's
        ``(n_states, n_clusters)`` matrix — exactly what the offline
        engine would have produced at that position.

        Raises
        ------
        ServerDrainingError
            Refused at admission: the batcher is draining or stopped.
        BackpressureError
            Refused at admission: the queue is at ``max_queue``.
        """
        self.stats.requests_total += 1
        if self._draining:
            self.stats.rejected_backpressure_total += 1
            raise ServerDrainingError(
                "server is draining", retry_after_s=self.retry_after_s()
            )
        if self.max_queue is not None and self._queue.qsize() >= self.max_queue:
            self.stats.rejected_backpressure_total += 1
            raise BackpressureError(
                f"queue full ({self._queue.qsize()} requests backed up)",
                retry_after_s=self.retry_after_s(),
            )
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        self._unresolved += 1
        fut.add_done_callback(self._resolved)
        self._queue.put_nowait((demand, fut))
        return await fut

    def _resolved(self, _fut: asyncio.Future) -> None:
        self._unresolved -= 1

    def _reject(self, fut: asyncio.Future, message: str) -> None:
        if not fut.done():
            self.stats.rejected_total += 1
            fut.set_exception(SessionExhaustedError(message))

    async def _collect(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            try:
                # A sole client skips the batch window: nothing else is
                # queued or unresolved, so there is nothing to coalesce
                # with and the wait would be pure added latency.
                sole = self._queue.empty() and self._unresolved <= 1
                if self.window_ms > 0 and not sole:
                    deadline = loop.time() + self.window_ms / 1000.0
                    while len(batch) < self.max_batch:
                        remaining = deadline - loop.time()
                        if remaining <= 0:
                            break
                        try:
                            batch.append(
                                await asyncio.wait_for(self._queue.get(), timeout=remaining)
                            )
                        except asyncio.TimeoutError:
                            break
                else:
                    while len(batch) < self.max_batch and not self._queue.empty():
                        batch.append(self._queue.get_nowait())
                await self._feed(batch)
            except asyncio.CancelledError:
                for _, fut in batch:
                    self._reject(fut, "server shutting down")
                raise

    async def _feed(self, batch: list[tuple[np.ndarray, asyncio.Future]]) -> None:
        loop = asyncio.get_running_loop()
        # Drop requests whose client already gave up *before* sizing the
        # batch — a cancelled request must not burn a horizon step.
        live = []
        for demand, fut in batch:
            if fut.done():
                self.stats.cancelled_total += 1
            else:
                live.append((demand, fut))
        remaining = self.session.steps_remaining
        keep = len(live) if remaining is None else min(len(live), remaining)
        for _, fut in live[keep:]:
            self._reject(fut, "session horizon exhausted")
        if keep == 0:
            return
        rows = np.stack([demand for demand, _ in live[:keep]])
        t0 = self.session.steps_fed
        t_feed = loop.time()
        try:
            if keep == 1:
                # Scalar fast path: a one-row feed is microseconds of
                # numpy — the executor hop would cost more than it
                # hides from the event loop.
                allocations = self.session.feed(rows)
            else:
                # The numpy work runs in a worker thread so the event
                # loop keeps accepting (and queueing) requests
                # meanwhile.
                allocations = await loop.run_in_executor(None, self.session.feed, rows)
        except Exception as exc:
            self.stats.errors_total += keep
            for _, fut in live[:keep]:
                if not fut.done():
                    fut.set_exception(exc)
            return
        per_row = (loop.time() - t_feed) / keep
        self._row_seconds = (
            per_row
            if self._row_seconds is None
            else 0.8 * self._row_seconds + 0.2 * per_row
        )
        self.stats.record_batch(keep)
        for i, (_, fut) in enumerate(live[:keep]):
            if not fut.done():
                fut.set_result((t0 + i, allocations[i]))
