"""The discrete-time routing simulator (§6.1).

"We constructed a simple discrete time simulator that stepped through
the Akamai usage statistics, letting a routing module (with a global
view of the network) allocate traffic to clusters at each time step.
Using these allocations, we modeled each cluster's energy consumption,
and used observed hourly market prices to calculate energy
expenditures."

The engine walks a :class:`~repro.traffic.trace.TrafficTrace` (hourly
or five-minute), hands the router the *lagged* prices (default one
hour — §6.1 assumes the system reacts to the previous hour's prices)
and the effective limits (cluster capacity, optionally the 95/5
ceilings), and records loads, paid prices, and the client-server
distance distribution into a :class:`~repro.sim.results.SimulationResult`.

Execution is a staged pipeline rather than a step loop, and every
entry point — offline :func:`simulate`, the stacked
:func:`simulate_many`, and the incremental
:class:`~repro.sim.session.RoutingSession` — runs the same three
private parts:

1. *Horizon* (:class:`_Horizon`) — the seen/paid price tensors for
   every step of a ``(start, step_seconds, n_steps)`` grid, the
   effective limits and the 95/5 burst threshold, all derived up
   front with array ops.
2. *Route* (:func:`_route`) — rows of demand are handed to the
   router's vectorised ``allocate_batch`` through
   :func:`repro.routing.base.batch_allocate`, with the steps that
   must burst above the 95/5 ceilings routed in their own batched
   call against plain capacity.
3. *Ledger* (:class:`_Ledger`) — per-step loads, the 95/5 burst
   accounting, and the distance histogram are accumulated with array
   reductions at fixed chunk boundaries, however the stream was split
   into calls.

:func:`simulate_per_step` preserves the original one-``allocate``-call-
per-step loop as the reference implementation; the batched pipeline is
required (and tested) to reproduce it *bit for bit*. Both paths fold
per-step allocations through one shared chunked reducer
(:class:`_AllocationReducer`) so even the floating-point summation
order of the distance histogram is part of the contract.

:func:`simulate_many` stacks R replica traces that share one market
data set into a single batched pass: one horizon serves every replica,
routing calls fuse steps from every replica (the router contract —
step ``t`` of a batch depends on step ``t``'s inputs alone — makes
fused calls bit-identical to per-replica ones), and each replica's
allocations fold through its own ledger at the *same* chunk boundaries
:func:`simulate` would use, so every returned result is bit for bit
the one a standalone :func:`simulate` call produces.

Chunking is sized by memory, not by a step count: a chunk's
``(chunk, n_states, n_clusters)`` float64 allocation tensor is kept
under ``BATCH_CHUNK_MIB`` (32 MiB) by :func:`batch_chunk_steps`, which
takes the largest power of two under the budget. At the paper scale
(49 states x 9 clusters, 3528 bytes per step) that is 8192 steps — the
historical hard-coded chunk, so histogram reduction order (and every
committed golden) is unchanged; smaller rosters get proportionally
longer chunks under the same ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro._native import fold_rows
from repro.errors import ConfigurationError, InfeasibleAllocationError
from repro.markets.generator import MarketDataset
from repro.routing.base import Router, RoutingProblem, batch_allocate
from repro.sim import profiling
from repro.sim.results import DISTANCE_BIN_KM, DISTANCE_MAX_KM, SimulationResult
from repro.traffic.percentile import Bandwidth95Tracker
from repro.traffic.trace import TrafficTrace
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "SimulationOptions",
    "simulate",
    "simulate_many",
    "simulate_per_step",
    "batch_chunk_steps",
    "BATCH_CHUNK_MIB",
]

#: Memory ceiling, in MiB, for one chunk's ``(chunk, n_states,
#: n_clusters)`` float64 allocation tensor. The chunk step count is
#: *derived* from the problem shape under this budget rather than
#: hard-coded, so small rosters batch more steps per call and large
#: ones never blow past the ceiling.
BATCH_CHUNK_MIB = 32.0


def batch_chunk_steps(n_states: int, n_clusters: int) -> int:
    """Steps per reduction chunk for a problem shape.

    The largest power of two whose allocation tensor stays under
    ``BATCH_CHUNK_MIB`` (minimum 1). The power-of-two floor keeps the
    paper-scale answer at exactly 8192 — the chunk size both pipelines
    historically hard-coded — so the chunked float summation order of
    the distance histogram, and with it every committed golden, is
    preserved. The chunk count is deliberately a function of the
    problem shape only (never of replica count or trace length):
    chunk boundaries are part of the bit-identity contract between
    :func:`simulate`, :func:`simulate_per_step`, and
    :func:`simulate_many`.
    """
    per_step = 8 * n_states * n_clusters
    budget = int(BATCH_CHUNK_MIB * 1024 * 1024)
    steps = max(1, budget // per_step)
    return 1 << (steps.bit_length() - 1)


class _AllocationReducer:
    """Per-step loads and chunked (state, cluster) totals of a stream.

    Floating-point addition is not associative, so the *order* in which
    per-step allocation tensors are summed is part of the engine's
    contract: both pipelines push every step's allocation through this
    reducer, which adds each step into a running ``(n_states,
    n_clusters)`` chunk partial sum in step order and adds the partial
    into the totals at chunk boundaries. That makes the distance
    histograms of :func:`simulate` and :func:`simulate_per_step` agree
    *bit for bit*, not merely to rounding tolerance. The same pass
    (``fold_rows`` in ``repro/kernels.c``) writes each step's per-
    cluster ``loads``, summed over states in state order.
    """

    def __init__(self, n_steps: int, n_states: int, n_clusters: int) -> None:
        self.loads = np.empty((n_steps, n_clusters))
        self._partial = np.zeros((n_states, n_clusters))
        self.total = np.zeros((n_states, n_clusters))
        # The kernel writes through these; the arrays live as long as self.
        self._loads_at = self.loads.ctypes.data
        self._partial_at = self._partial.ctypes.data

    def fold(self, t0: int, allocations: np.ndarray) -> None:
        """Fold ``(k, n_states, n_clusters)`` allocations for steps
        ``t0 .. t0 + k - 1`` into the loads and the chunk's partial sum."""
        allocations = np.ascontiguousarray(allocations, dtype=np.float64)
        k, n_states, n_clusters = allocations.shape
        if (n_states, n_clusters) != self._partial.shape or not 0 <= t0 <= len(self.loads) - k:
            raise ConfigurationError(
                f"cannot fold allocations {allocations.shape} at step {t0} into "
                f"{self.loads.shape[0]} steps of a {self._partial.shape} partial sum"
            )
        fold_rows(
            k,
            n_states,
            n_clusters,
            allocations.ctypes.data,
            self._loads_at + t0 * self.loads.strides[0],
            self._partial_at,
        )

    def reduce_chunk(self) -> None:
        """Add the chunk's partial sum into the totals and start the next."""
        self.total += self._partial
        self._partial.fill(0.0)

    def histogram(self, bin_index: np.ndarray, n_bins: int) -> np.ndarray:
        """The demand-weighted distance histogram of the whole run."""
        return np.bincount(bin_index, weights=self.total.ravel(), minlength=n_bins)


@dataclass(frozen=True, slots=True)
class SimulationOptions:
    """Controls for one simulation run.

    Attributes
    ----------
    reaction_delay_hours:
        Hours between a price being set and the router seeing it.
        §6.1: "we assumed the system reacted to the previous hour's
        prices" — delay 1. Fig. 20 sweeps 0-30.
    capacity_margin:
        Fraction of each cluster's capacity the router may fill; the
        paper's optimizer avoids clusters "nearing capacity".
    relax_capacity:
        Ignore per-cluster capacity entirely (used with the static
        single-hub router, whose site notionally hosts the whole
        fleet).
    bandwidth_caps:
        Per-cluster 95th-percentile ceilings (hits/s) from a baseline
        run. When set, the run "follows original 95/5 constraints":
        clusters may burst above their cap only within the free 5% of
        intervals. Validated and normalised to a read-only 1-D float
        array at construction; the engine checks its length against
        the deployment.
    """

    reaction_delay_hours: int = 1
    capacity_margin: float = 0.97
    relax_capacity: bool = False
    bandwidth_caps: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.reaction_delay_hours < 0:
            raise ConfigurationError("reaction delay must be non-negative")
        if not 0.0 < self.capacity_margin <= 1.0:
            raise ConfigurationError("capacity margin must be in (0, 1]")
        if self.bandwidth_caps is not None:
            try:
                caps = np.asarray(self.bandwidth_caps, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    "bandwidth caps must be convertible to a float array"
                ) from exc
            if caps.ndim != 1 or caps.size == 0:
                raise ConfigurationError(
                    "bandwidth caps must be a non-empty 1-D per-cluster array, "
                    f"got shape {caps.shape}"
                )
            if not np.all(np.isfinite(caps)) or np.any(caps < 0):
                raise ConfigurationError("bandwidth caps must be finite and non-negative")
            caps = caps.copy()
            caps.setflags(write=False)
            object.__setattr__(self, "bandwidth_caps", caps)


def _hour_indices(grid, dataset: MarketDataset) -> np.ndarray:
    """Map every step of a grid (``start``, ``step_seconds``, ``n_steps``)
    to its hour index in the market calendar."""
    calendar = dataset.calendar
    offset_seconds = (grid.start - calendar.start).total_seconds()
    if offset_seconds < 0:
        raise ConfigurationError("trace starts before the market calendar")
    step_starts = offset_seconds + np.arange(grid.n_steps) * grid.step_seconds
    hours = (step_starts // SECONDS_PER_HOUR).astype(np.int64)
    if hours[-1] >= calendar.n_hours:
        raise ConfigurationError("trace extends past the market calendar")
    return hours


def _distance_bins(problem: RoutingProblem) -> tuple[np.ndarray, int]:
    """Flat (state, cluster) -> histogram-bin mapping for a problem."""
    distances = problem.distances.matrix
    bin_index = np.minimum(
        (distances / DISTANCE_BIN_KM).astype(np.int64),
        int(DISTANCE_MAX_KM / DISTANCE_BIN_KM) - 1,
    ).ravel()
    return bin_index, int(DISTANCE_MAX_KM / DISTANCE_BIN_KM)


class _Horizon:
    """Everything one run fixes before any demand arrives.

    Prices never depend on demand, so the seen/paid price tensors for
    every step of the grid, the effective limits, and the 95/5 burst
    threshold are derived once. The router sees ``prices`` (lagged,
    or the caller's override), ``limits`` and ``capacity_limits``;
    billing uses ``paid_prices``.
    """

    def __init__(
        self,
        dataset: MarketDataset,
        problem: RoutingProblem,
        router: Router,
        opts: SimulationOptions,
        *,
        start,
        step_seconds: int,
        n_steps: int,
        router_prices: np.ndarray | None = None,
    ) -> None:
        deployment = problem.deployment
        self.problem = problem
        self.router = router
        self.start = start
        self.step_seconds = step_seconds
        self.n_steps = n_steps

        hour_idx = _hour_indices(self, dataset)
        hub_columns = np.array([dataset.hub_column(code) for code in deployment.hub_codes])
        if router_prices is not None:
            seen_prices = np.asarray(router_prices, dtype=float)
            if seen_prices.shape != (n_steps, deployment.n_clusters):
                raise ConfigurationError(
                    "router_prices must be (n_steps, n_clusters), got "
                    f"{seen_prices.shape}"
                )
        else:
            lagged = dataset.lagged_price_matrix(opts.reaction_delay_hours)
            seen_prices = lagged[hour_idx][:, hub_columns]
        self.prices = seen_prices
        self.paid_prices = dataset.price_matrix[hour_idx][:, hub_columns]

        if opts.relax_capacity:
            capacity_limits = np.full(deployment.n_clusters, np.inf)
        else:
            capacity_limits = deployment.capacities * opts.capacity_margin

        limits = capacity_limits
        #: Rows whose total demand exceeds this threshold burst above
        #: the 95/5 caps (None when the run is unconstrained).
        self.burst_threshold: float | None = None
        self.caps = opts.bandwidth_caps
        if self.caps is not None:
            if self.caps.shape != (deployment.n_clusters,):
                raise ConfigurationError(
                    "bandwidth caps must have one entry per cluster, got "
                    f"{self.caps.shape[0]} for {deployment.n_clusters} clusters"
                )
            limits = np.minimum(capacity_limits, self.caps)
            # Steps whose national demand cannot fit under the 95/5
            # caps burst: the router is run against the plain capacity
            # limits instead (these are exactly the intervals where the
            # baseline itself exceeded its 95th percentile, so they
            # fall in the billing-free 5% — the tracker verifies). The
            # predicate mirrors the greedy walk's infeasibility test.
            finite = np.isfinite(limits)
            total_limit = float(np.sum(limits[finite])) + (np.inf if np.any(~finite) else 0.0)
            self.burst_threshold = total_limit + 1e-6

        self.limits, self.capacity_limits = limits, capacity_limits
        self.bin_index, self.n_bins = _distance_bins(problem)
        self.chunk_steps = batch_chunk_steps(problem.n_states, problem.n_clusters)


def _replay_with_retry(
    horizon: _Horizon, demand: np.ndarray, prices: np.ndarray
) -> np.ndarray:
    """Reference semantics, one step at a time: capped limits first,
    plain capacity when the router raises."""
    router = horizon.router
    out = np.empty((demand.shape[0], demand.shape[1], horizon.limits.shape[0]))
    for i in range(demand.shape[0]):
        try:
            out[i] = router.allocate(demand[i], prices[i], horizon.limits)
        except InfeasibleAllocationError:
            out[i] = router.allocate(demand[i], prices[i], horizon.capacity_limits)
    return out


def _route_capped(horizon: _Horizon, demand: np.ndarray, prices: np.ndarray) -> np.ndarray:
    """Non-burst rows: one batched call against the effective limits."""
    try:
        return batch_allocate(horizon.router, demand, prices, horizon.limits)
    except InfeasibleAllocationError:
        if horizon.caps is None:
            raise
        # The burst predicate only anticipates total-demand overflow; a
        # router may still raise on per-cluster structure (e.g. a
        # capped candidate set). Fall back to the per-step contract.
        return _replay_with_retry(horizon, demand, prices)


def _route(horizon: _Horizon, demand: np.ndarray, steps: slice | np.ndarray) -> np.ndarray:
    """Allocate ``demand`` rows at horizon ``steps``.

    The one routing function every entry point shares. Each row is
    routed under :func:`simulate_per_step`'s semantics: non-burst rows
    in one batched call against the effective limits, and 95/5 burst
    rows (total demand above the capped limits) in one batched call
    against plain capacity. The burst predicate is the greedy routers'
    own infeasibility test, so the per-step try/except would raise on
    the capped limits and retry against capacity at exactly these
    rows; a router that ignores limits (the static hub) gives the same
    allocation either way. Step ``t`` of a batch depends on step
    ``t``'s inputs alone, so the result is independent of how rows are
    grouped into calls.
    """
    prices = horizon.prices[steps]
    if horizon.burst_threshold is None:
        return batch_allocate(horizon.router, demand, prices, horizon.limits)
    burst = demand.sum(axis=1) > horizon.burst_threshold
    if not burst.any():
        return _route_capped(horizon, demand, prices)
    out = np.empty((demand.shape[0], demand.shape[1], horizon.limits.shape[0]))
    fast = ~burst
    if fast.any():
        out[fast] = _route_capped(horizon, demand[fast], prices[fast])
    out[burst] = batch_allocate(
        horizon.router, demand[burst], prices[burst], horizon.capacity_limits
    )
    return out


class _Ledger:
    """One demand stream's accounting over a horizon.

    Realised loads, the rolling 95/5 tracker, and the chunked
    :class:`_AllocationReducer`. :meth:`fold` accepts allocations for
    any run of consecutive steps and segments it at the
    :func:`batch_chunk_steps` boundaries, so however a stream is split
    into folds — whole chunks offline, one row per ``/route`` request —
    the reduction order, and with it every bit of the result, is the
    same.
    """

    def __init__(self, horizon: _Horizon) -> None:
        problem = horizon.problem
        self.horizon = horizon
        self.tracker = (
            Bandwidth95Tracker(horizon.caps, horizon.n_steps) if horizon.caps is not None else None
        )
        self.reducer = _AllocationReducer(horizon.n_steps, problem.n_states, problem.n_clusters)
        self.loads = self.reducer.loads

    def fold(self, t0: int, allocations: np.ndarray) -> None:
        """Account allocations for steps ``t0 .. t0 + k - 1``."""
        k = allocations.shape[0]
        chunk = self.horizon.chunk_steps
        i = 0
        while i < k:
            span = min(k - i, chunk - (t0 + i) % chunk)
            self.reducer.fold(t0 + i, allocations[i : i + span])
            end = t0 + i + span
            if end % chunk == 0 or end == self.horizon.n_steps:
                self.reducer.reduce_chunk()
            i += span
        if self.tracker is not None:
            self.tracker.record_batch(self.loads[t0 : t0 + k])

    def result(self, server_counts: np.ndarray | None) -> SimulationResult:
        """Package the completed stream into a :class:`SimulationResult`."""
        horizon = self.horizon
        return _finalize(
            horizon.start,
            horizon.step_seconds,
            horizon.problem,
            horizon.paid_prices,
            self.loads,
            self.reducer.histogram(horizon.bin_index, horizon.n_bins),
            server_counts,
        )


def _finalize(
    start,
    step_seconds: int,
    problem: RoutingProblem,
    paid_prices: np.ndarray,
    loads: np.ndarray,
    histogram: np.ndarray,
    server_counts: np.ndarray | None,
) -> SimulationResult:
    """Package loads and accounting into a result.

    Shared by the batched core and :func:`simulate_per_step`, so every
    path packages identical accounting from identical inputs.
    """
    deployment = problem.deployment
    capacities = deployment.capacities
    default_counts = np.array([c.n_servers for c in deployment.clusters], dtype=float)
    if server_counts is not None:
        counts = np.asarray(server_counts, dtype=float)
        if counts.shape != (deployment.n_clusters,):
            raise ConfigurationError("server_counts must have one entry per cluster")
        # Energy accounting must see the capacity the *relocated* fleet
        # provides at each site, or utilization (load / capacity) is
        # computed against the wrong machine count.
        hits_per_server = deployment.total_capacity / default_counts.sum()
        accounting_capacities = counts * hits_per_server
    else:
        counts = default_counts
        accounting_capacities = capacities.copy()

    return SimulationResult(
        start=start,
        step_seconds=step_seconds,
        cluster_labels=deployment.labels,
        capacities=accounting_capacities,
        server_counts=counts,
        loads=loads,
        paid_prices=paid_prices.copy(),
        distance_histogram=histogram,
    )


def _simulate_traces(
    traces: tuple[TrafficTrace, ...],
    dataset: MarketDataset,
    problem: RoutingProblem,
    router: Router,
    options: SimulationOptions | None,
    server_counts: np.ndarray | None,
    router_prices: np.ndarray | None,
) -> tuple[SimulationResult, ...]:
    """The batched core behind :func:`simulate` and :func:`simulate_many`.

    One horizon shared by every trace, one ledger per trace. Each chunk
    of :func:`batch_chunk_steps` steps is routed with the traces' rows
    fused into as few calls as the same per-call row budget allows —
    a single trace gets exactly one call per chunk, short traces fuse
    many replicas into one.
    """
    first = traces[0]
    for tr in traces:
        if tr.state_codes != problem.state_codes:
            raise ConfigurationError("trace state order does not match routing problem")
        if (
            tr.start != first.start
            or tr.n_steps != first.n_steps
            or tr.step_seconds != first.step_seconds
        ):
            raise ConfigurationError(
                "simulate_many traces must share start, length, and step size"
            )

    with profiling.phase("precompute"):
        horizon = _Horizon(
            dataset,
            problem,
            router,
            options or SimulationOptions(),
            start=first.start,
            step_seconds=first.step_seconds,
            n_steps=first.n_steps,
            router_prices=router_prices,
        )
    ledgers = [_Ledger(horizon) for _ in traces]
    chunk = horizon.chunk_steps
    for lo in range(0, horizon.n_steps, chunk):
        hi = min(lo + chunk, horizon.n_steps)
        span = hi - lo
        per_call = max(1, chunk // span)
        for g in range(0, len(traces), per_call):
            group = range(g, min(g + per_call, len(traces)))
            demand = np.concatenate([traces[r].demand[lo:hi] for r in group])
            with profiling.phase("routing"):
                allocations = _route(horizon, demand, np.tile(np.arange(lo, hi), len(group)))
            with profiling.phase("reduce"):
                for j, r in enumerate(group):
                    ledgers[r].fold(lo, allocations[j * span : (j + 1) * span])

    with profiling.phase("finalize"):
        return tuple(ledger.result(server_counts) for ledger in ledgers)


def simulate(
    trace: TrafficTrace,
    dataset: MarketDataset,
    problem: RoutingProblem,
    router: Router,
    options: SimulationOptions | None = None,
    server_counts: np.ndarray | None = None,
    router_prices: np.ndarray | None = None,
) -> SimulationResult:
    """Run one routing policy over a trace and price data set.

    The batched pipeline: limits are constant over the whole run (the
    95/5 caps never move once derived), so after precomputing the
    price tensors the engine hands the router maximal runs of steps at
    once — chunked to bound memory — and routes the burst steps, where
    demand exceeds the capped limits, in their own call. Results
    are identical, step for step, to :func:`simulate_per_step`, to the
    stacked multi-replica pass (:func:`simulate_many`), and to an
    incremental :class:`~repro.sim.session.RoutingSession` fed the
    same demand rows.

    Parameters
    ----------
    trace:
        Per-state demand. Its state columns must match the routing
        problem's state order.
    dataset:
        Market prices; every cluster's hub must be present.
    problem:
        Deployment + distances shared across routers.
    router:
        The allocation policy under test.
    options:
        Simulation controls; defaults reproduce §6.1 (one-hour
        reaction delay, capacity respected, 95/5 relaxed).
    server_counts:
        Energy-accounting server counts per cluster; defaults to the
        deployment's. The static-placement experiments pass the whole
        fleet concentrated at one site.
    router_prices:
        Optional ``(n_steps, n_clusters)`` matrix the router sees in
        place of the lagged market prices — §8's pluggable cost
        functions (carbon intensity, cooling-adjusted prices). Rows
        are indexed by step, so routing stays correct however the
        engine batches or reorders work; billing always uses the real
        market prices, and ``reaction_delay_hours`` does not apply to
        an override (lag it yourself if the signal calls for it).
    """
    return _simulate_traces(
        (trace,), dataset, problem, router, options, server_counts, router_prices
    )[0]


def simulate_per_step(
    trace: TrafficTrace,
    dataset: MarketDataset,
    problem: RoutingProblem,
    router: Router,
    options: SimulationOptions | None = None,
    server_counts: np.ndarray | None = None,
    router_prices: np.ndarray | None = None,
) -> SimulationResult:
    """Reference implementation: one ``allocate`` call per step.

    This is the original §6.1 loop the batched pipeline replaces. It
    is kept as the ground truth for equivalence tests and as the
    denominator of the ``engine`` section of ``benchmarks/gate.py``;
    the two must agree on loads, costs, and distance histograms. Both
    hand it the per-step oracle routers of ``tests/router_oracle.py``,
    whose ``allocate`` is the scalar program each router's
    ``allocate_batch`` replaced, so it runs the original program end
    to end.
    """
    if trace.state_codes != problem.state_codes:
        raise ConfigurationError("trace state order does not match routing problem")
    horizon = _Horizon(
        dataset,
        problem,
        router,
        options or SimulationOptions(),
        start=trace.start,
        step_seconds=trace.step_seconds,
        n_steps=trace.n_steps,
        router_prices=router_prices,
    )
    demand = trace.demand
    n_clusters = problem.n_clusters
    chunk_steps = horizon.chunk_steps

    reducer = _AllocationReducer(trace.n_steps, problem.n_states, n_clusters)
    tracker = None
    if horizon.caps is not None:
        tracker = Bandwidth95Tracker(horizon.caps, trace.n_steps)
    loads = reducer.loads
    for t in range(trace.n_steps):
        try:
            allocation = router.allocate(demand[t], horizon.prices[t], horizon.limits)
        except InfeasibleAllocationError:
            if tracker is None:
                raise
            # Demand cannot fit under the 95/5 caps this step: burst.
            allocation = router.allocate(demand[t], horizon.prices[t], horizon.capacity_limits)
        reducer.fold(t, allocation[None])
        if tracker is not None:
            tracker.record(loads[t])
        if (t + 1) % chunk_steps == 0 or t == trace.n_steps - 1:
            reducer.reduce_chunk()
    histogram = reducer.histogram(horizon.bin_index, horizon.n_bins)
    return _finalize(
        trace.start,
        trace.step_seconds,
        problem,
        horizon.paid_prices,
        loads,
        histogram,
        server_counts,
    )


def simulate_many(
    traces: Iterable[TrafficTrace],
    dataset: MarketDataset,
    problem: RoutingProblem,
    router: Router,
    options: SimulationOptions | None = None,
    server_counts: np.ndarray | None = None,
) -> tuple[SimulationResult, ...]:
    """Run one routing policy over R replica traces in a single pass.

    The stacked multi-replica entry point for ensemble sweeps: all
    traces must share one market data set, one calendar window (same
    start, step count, and step size), and one state order — exactly
    the shape of a sweep's seeded traffic replicas. The pass then

    * runs the price/limit precompute **once** (the replicas see the
      same lagged prices and pay the same market prices),
    * hands the router **fused** routing calls — steps from every
      replica stacked into one ``batch_allocate`` — whenever the fused
      tensor fits the same :func:`batch_chunk_steps` memory budget a
      single-replica chunk obeys, and
    * folds each replica's allocations through its own ledger at the
      same chunk boundaries :func:`simulate` uses.

    Because a conformant ``allocate_batch`` computes each step
    independently (step ``t`` depends on step ``t``'s inputs alone —
    the contract the differential suites pin), fusing steps
    from different replicas into one call cannot change any step's
    allocation, and every returned result is bit-identical to a
    standalone ``simulate(trace_r, ...)`` call.

    95/5 caps (``options.bandwidth_caps``) are shared across replicas
    — each replica gets its own :class:`Bandwidth95Tracker` and its
    own burst-step accounting against the shared ceilings. Per-replica
    caps (e.g. each replica following its *own* baseline) need
    separate :func:`simulate` calls. ``router_prices`` overrides are
    per-trace by nature and likewise excluded.
    """
    traces = tuple(traces)
    if not traces:
        return ()
    return _simulate_traces(traces, dataset, problem, router, options, server_counts, None)
