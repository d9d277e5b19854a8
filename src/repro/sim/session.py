"""Incremental engine mode: one allocation per arriving step.

The offline pipelines (:func:`repro.sim.simulate` and friends) replay
a complete :class:`~repro.traffic.trace.TrafficTrace`; a
:class:`RoutingSession` is the same engine turned inside out for the
online serving path. The session is opened against a market window —
prices for every step of the declared horizon are materialised up
front from any :class:`~repro.markets.providers.PriceProvider`-backed
dataset, since prices never depend on demand — and demand then arrives
*step by step* (or in micro-batches): each :meth:`feed` call routes
the new steps immediately and returns their allocations.

The contract is the repository's usual one, extended to time: feeding
a demand sequence through a session is **bit-identical** to running
:func:`~repro.sim.simulate` offline over a trace with the same rows.
Concretely,

* the session runs the offline engine's own stepping core: one
  precomputed :class:`~repro.sim.engine._Horizon`, the shared
  :func:`~repro.sim.engine._route` (so each step is routed under
  :func:`simulate_per_step`'s semantics, burst steps included), and
  one :class:`~repro.sim.engine._Ledger`;
* the ledger's rolling
  :class:`~repro.traffic.percentile.Bandwidth95Tracker` accounts
  realised loads exactly as the offline run would; and
* allocations fold through the ledger at the *same* chunk boundaries,
  so when the horizon completes, :meth:`result` returns a
  :class:`~repro.sim.results.SimulationResult` whose loads, paid
  prices, and distance histogram match the offline run bit for bit
  (pinned by ``tests/test_sim_session.py``).

Sessions are the substrate of :mod:`repro.serve`'s micro-batching
server; open one from a registered scenario with
:func:`repro.scenarios.open_session`.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np

from repro.errors import ConfigurationError
from repro.markets.generator import MarketDataset
from repro.routing.base import Router, RoutingProblem
from repro.sim.engine import SimulationOptions, _Horizon, _Ledger, _route
from repro.sim.results import SimulationResult
from repro.traffic.percentile import Bandwidth95Tracker

__all__ = ["RoutingSession", "SessionExhaustedError"]


class SessionExhaustedError(ConfigurationError):
    """Raised when demand is fed past the session's declared horizon."""


class RoutingSession:
    """Rolling engine state that routes demand one step at a time.

    Parameters
    ----------
    dataset:
        Market prices; every cluster's hub must be present. Typically
        materialised by a :class:`~repro.markets.providers.PriceProvider`.
        A NaN among the prices the router would see over the horizon
        is refused with :class:`~repro.errors.ConfigurationError`.
    problem:
        Deployment + distances shared across routers.
    router:
        The allocation policy serving this session.
    options:
        Engine controls, exactly as for :func:`~repro.sim.simulate`:
        reaction delay, capacity margin, optional 95/5
        ``bandwidth_caps`` (the session then holds a rolling
        :class:`~repro.traffic.percentile.Bandwidth95Tracker`).
    start / step_seconds / n_steps:
        The step grid: wall-clock start of step 0, seconds per step,
        and the session horizon. The horizon is declared up front
        because 95/5 accounting (the free-interval budget) and the
        finalisation contract are defined over a billing window, not
        an open-ended stream; it must fit the dataset's calendar.
    server_counts:
        Energy-accounting server counts per cluster (see
        :func:`~repro.sim.simulate`).
    """

    def __init__(
        self,
        dataset: MarketDataset,
        problem: RoutingProblem,
        router: Router,
        options: SimulationOptions | None = None,
        *,
        start: datetime,
        step_seconds: int,
        n_steps: int,
        server_counts: np.ndarray | None = None,
    ) -> None:
        if n_steps < 1:
            raise ConfigurationError("session horizon must be at least one step")
        if step_seconds < 1:
            raise ConfigurationError("step_seconds must be positive")
        self._horizon = _Horizon(
            dataset,
            problem,
            router,
            options or SimulationOptions(),
            start=start,
            step_seconds=int(step_seconds),
            n_steps=int(n_steps),
        )
        nan = np.isnan(self._horizon.prices)
        if nan.any():
            step, cluster = (int(i) for i in np.argwhere(nan)[0])
            raise ConfigurationError(
                "the router would see a NaN price for cluster "
                f"{problem.deployment.clusters[cluster].label} at step {step}"
            )
        self._ledger = _Ledger(self._horizon)
        self._problem = problem
        self._server_counts = server_counts
        self._cursor = 0
        self._result: SimulationResult | None = None

    # -- introspection ---------------------------------------------------------

    @property
    def n_steps(self) -> int:
        """The declared horizon, in steps."""
        return self._horizon.n_steps

    @property
    def step_seconds(self) -> int:
        """Seconds per step on the session's grid."""
        return self._horizon.step_seconds

    @property
    def steps_fed(self) -> int:
        """How many steps have been routed so far."""
        return self._cursor

    @property
    def steps_remaining(self) -> int:
        """Horizon steps not yet fed."""
        return self._horizon.n_steps - self._cursor

    @property
    def exhausted(self) -> bool:
        """True once the whole horizon has been routed."""
        return self._cursor >= self._horizon.n_steps

    @property
    def cluster_labels(self) -> tuple[str, ...]:
        return self._problem.deployment.labels

    @property
    def state_codes(self) -> tuple[str, ...]:
        """Column order :meth:`feed` expects demand in."""
        return self._problem.state_codes

    @property
    def tracker(self) -> Bandwidth95Tracker | None:
        """The rolling 95/5 tracker (None when the run is unconstrained)."""
        return self._ledger.tracker

    def _check_step(self, step: int, *, end: int) -> int:
        """Validate a step index against the horizon (``[0, end]``)."""
        t = int(step)
        if not 0 <= t <= end:
            raise ConfigurationError(
                f"step {step} is outside the session horizon [0, {end}]"
            )
        return t

    def clock(self, step: int | None = None) -> datetime:
        """Wall-clock start of ``step`` (default: the next unfed step).

        ``step == n_steps`` is allowed — it is the end boundary of the
        horizon (the start of the next billing window).
        """
        h = self._horizon
        t = self._cursor if step is None else self._check_step(step, end=h.n_steps)
        return h.start + timedelta(seconds=t * h.step_seconds)

    def seen_prices(self, step: int) -> np.ndarray:
        """The (lagged) per-cluster prices the router sees at ``step``."""
        return self._horizon.prices[self._check_step(step, end=self.n_steps - 1)].copy()

    def paid_prices(self, step: int) -> np.ndarray:
        """The per-cluster market prices billed at ``step``."""
        return self._horizon.paid_prices[self._check_step(step, end=self.n_steps - 1)].copy()

    # -- feeding ---------------------------------------------------------------

    def _validate_demand(self, demand: np.ndarray) -> np.ndarray:
        arr = np.asarray(demand, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self._problem.n_states:
            raise ConfigurationError(
                f"demand must be ({self._problem.n_states},) or "
                f"(k, {self._problem.n_states}), got shape {np.asarray(demand).shape}"
            )
        if arr.shape[0] == 0:
            raise ConfigurationError("feed needs at least one step of demand")
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise ConfigurationError("demand must be finite and non-negative")
        return arr

    def step(self, demand: np.ndarray) -> np.ndarray:
        """Route one step of demand; returns its allocation matrix.

        The ``(n_states, n_clusters)`` return equals what the offline
        engine would have allocated at this position in the horizon.
        """
        return self.feed(np.asarray(demand, dtype=float)[None, :])[0]

    def feed(self, demand: np.ndarray) -> np.ndarray:
        """Route a micro-batch of ``k`` consecutive steps.

        ``demand`` is ``(k, n_states)`` (a single ``(n_states,)`` row
        is promoted); the return is the ``(k, n_states, n_clusters)``
        allocation tensor. Feeding ``[a, b]`` in one call is
        bit-identical to ``feed([a]); feed([b])`` — micro-batching is
        a throughput decision, never a semantic one — which is what
        lets the serving layer coalesce concurrent requests freely.

        Raises
        ------
        SessionExhaustedError
            If the batch would run past the declared horizon.
        InfeasibleAllocationError
            If a step's demand cannot be placed even against plain
            capacity (or, unconstrained, at all).
        """
        rows = self._validate_demand(demand)
        k = rows.shape[0]
        t0 = self._cursor
        if t0 + k > self.n_steps:
            raise SessionExhaustedError(
                f"feeding {k} step(s) at step {t0} exceeds the session horizon "
                f"({self.n_steps} steps)"
            )
        allocations = _route(self._horizon, rows, slice(t0, t0 + k))
        self._ledger.fold(t0, allocations)
        self._cursor = t0 + k
        return allocations

    # -- finalisation ----------------------------------------------------------

    def result(self) -> SimulationResult:
        """The completed run's :class:`SimulationResult`.

        Only available once the whole horizon has been fed; the result
        is bit-identical to :func:`~repro.sim.simulate` over a trace
        carrying the same demand rows.
        """
        if not self.exhausted:
            raise ConfigurationError(
                f"session has routed {self._cursor}/{self.n_steps} steps; "
                "the result is defined over the full horizon"
            )
        if self._result is None:
            self._result = self._ledger.result(self._server_counts)
        return self._result
