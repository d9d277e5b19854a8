"""Routing abstractions.

A *router* maps one time step's per-state demand onto clusters, given
the electricity prices it can currently see and the effective capacity
limits. Routers are deliberately stateless across steps except through
the limits they are handed (the 95/5 tracker lives in the simulation
engine), which keeps every scheme replayable and comparable.

Every router implements one allocation body, ``allocate_batch``, the
vectorised form over a whole run of steps, and subclasses
:class:`Router` for the shared single-step ``allocate``; the simulation
engine hands routers maximal runs of steps at once through
:func:`batch_allocate`. The per-step programs these bodies replaced
live on as the test oracle (``tests/router_oracle.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ConfigurationError, InfeasibleAllocationError
from repro.geo.distance import DistanceTable
from repro.geo.states import all_states
from repro._native import (
    WALK_BAD_INDEX,
    WALK_INFEASIBLE,
    WALK_NOMEM,
    greedy_walk,
)
from repro.traffic.clusters import ClusterDeployment

__all__ = [
    "Router",
    "RoutingProblem",
    "batch_allocate",
    "greedy_fill_batch",
    "deployment_distance_table",
]


def _profiling():
    # Imported lazily: repro.sim.engine imports this module, so a
    # module-level import of repro.sim.profiling would be circular on
    # some import orders.
    from repro.sim import profiling

    return profiling


def deployment_distance_table(deployment: ClusterDeployment) -> DistanceTable:
    """Population-weighted state-to-cluster distances for a deployment."""
    return DistanceTable(all_states(contiguous_only=True), deployment.locations)


class RoutingProblem:
    """Static context shared by all routers for one simulation.

    Bundles the deployment, the distance table (states x clusters), and
    the state ordering so routers can precompute whatever they need.
    """

    def __init__(
        self,
        deployment: ClusterDeployment,
        distances: DistanceTable | None = None,
    ) -> None:
        self.deployment = deployment
        self.distances = distances or deployment_distance_table(deployment)
        if self.distances.n_sites != deployment.n_clusters:
            raise ConfigurationError("distance table columns must match deployment clusters")
        self.state_codes = tuple(s.code for s in self.distances.states)

    @property
    def n_states(self) -> int:
        return self.distances.n_states

    @property
    def n_clusters(self) -> int:
        return self.deployment.n_clusters


class Router(ABC):
    """One allocation policy.

    A router implements one method, :meth:`allocate_batch`, the
    allocation of a whole run of ``T`` steps; the single-step
    :meth:`allocate` is shared by every router and is that method on a
    one-row batch. Every output row sums to its step's demand (all
    demand is always served — §1's problem statement assumes full
    replication), and step ``t`` of a batch depends on step ``t``'s
    inputs alone, so how steps are grouped into calls never changes an
    allocation: the engine fuses replicas and splits bursts freely.

    The greedy routers raise
    :class:`~repro.errors.InfeasibleAllocationError` exactly when a
    step's total demand exceeds its summed finite limits (the greedy
    walk's predicate, see :func:`greedy_fill_batch`). The engine leans
    on it: a 95/5 burst step, whose demand exceeds the summed caps, is
    routed against plain capacity in one batched call, and any other
    raise (say, on one cluster's limit) is retried step by step, first
    against the capped limits and then against capacity.
    """

    @abstractmethod
    def allocate_batch(
        self,
        demand: np.ndarray,
        prices: np.ndarray,
        limits: np.ndarray,
    ) -> np.ndarray:
        """Map ``T`` steps of demand to clusters.

        Parameters
        ----------
        demand:
            ``(T, n_states)`` request rates, hits/s per state.
        prices:
            ``(T, n_clusters)`` prices the router is allowed to see
            (already lagged by the reaction delay), $/MWh.
        limits:
            ``(n_clusters,)`` shared or ``(T, n_clusters)`` per-step
            load ceilings (capacity and/or the 95/5 ceiling). ``inf``
            means unconstrained.

        Returns the ``(T, n_states, n_clusters)`` allocation tensor.
        Call it through :func:`batch_allocate`, which validates the
        inputs and converts them to float arrays first.
        """

    def allocate(self, demand: np.ndarray, prices: np.ndarray, limits: np.ndarray) -> np.ndarray:
        """One step: ``(n_states,)`` demand, ``(n_clusters,)`` prices and
        limits to an ``(n_states, n_clusters)`` allocation, through
        :func:`batch_allocate` on one row."""
        demand, prices = np.expand_dims(demand, 0), np.expand_dims(prices, 0)
        return batch_allocate(self, demand, prices, limits)[0]


def batch_allocate(
    router: Router,
    demand: np.ndarray,
    prices: np.ndarray,
    limits: np.ndarray,
) -> np.ndarray:
    """Validate a run of steps and hand it to ``router.allocate_batch``.

    The inputs are ``demand`` ``(T, n_states)``, ``prices``
    ``(T, n_clusters)`` and ``limits`` ``(n_clusters,)`` or
    ``(T, n_clusters)``, with one cluster count between prices and
    limits, and no NaN in ``demand``, ``prices`` or ``limits``. A NaN
    price makes no cluster cheapest, so a router would place states
    outside their candidate sets; ``inf`` prices are legal.

    Raises
    ------
    ConfigurationError
        If the shapes disagree or ``demand``, ``prices`` or ``limits``
        holds NaN.
    """
    demand = np.asarray(demand, dtype=float)
    prices = np.asarray(prices, dtype=float)
    limits = np.asarray(limits, dtype=float)
    if demand.ndim != 2:
        raise ConfigurationError(f"batch demand must be 2-D, got shape {demand.shape}")
    n_steps = demand.shape[0]
    if prices.ndim != 2 or prices.shape[0] != n_steps:
        raise ConfigurationError(
            f"batch prices must be ({n_steps}, n_clusters), got shape {prices.shape}"
        )
    if limits.ndim not in (1, 2) or (limits.ndim == 2 and limits.shape[0] != n_steps):
        raise ConfigurationError(
            f"batch limits must be (n_clusters,) or ({n_steps}, n_clusters), "
            f"got shape {limits.shape}"
        )
    if limits.shape[-1] != prices.shape[1]:
        raise ConfigurationError(
            f"batch prices cover {prices.shape[1]} clusters but limits cover "
            f"{limits.shape[-1]}"
        )
    if np.isnan(demand).any() or np.isnan(limits).any():
        raise ConfigurationError("batch demand and limits must not contain NaN")
    if np.isnan(prices).any():
        raise ConfigurationError("batch prices must not contain NaN")
    return router.allocate_batch(demand, prices, limits)


def greedy_fill_batch(
    demand: np.ndarray,
    preference_orders: np.ndarray,
    limits: np.ndarray,
    state_order: np.ndarray | None = None,
    *,
    preference_rows: np.ndarray | None = None,
    out: np.ndarray | None = None,
    out_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Allocate each state's demand along its cluster preference order.

    The workhorse shared by the greedy routers, over a run of steps:
    per step, walk states (largest demand first by default), pour each
    state's demand into its most-preferred cluster with remaining
    headroom, and spill the remainder down the preference list — the
    paper's "iteratively finds another good cluster" behaviour. A final
    pass over the unlisted clusters (by descending remaining headroom,
    ties toward the lower index) guarantees feasibility.

    The feasibility check is vectorised over the batch; the spill runs
    in the C kernel (``greedy_walk`` in ``repro/kernels.c``), one step
    after another, so every step is bitwise equal to walking it alone.

    Parameters
    ----------
    demand:
        ``(T, n_states)`` hit rates.
    preference_orders:
        ``(n_states, k)`` cluster preference matrix shared by all
        steps, or ``(R, n_states, k)`` blocks of orders, most preferred
        first: step ``i`` uses block ``preference_rows[i]``, or block
        ``i`` when ``preference_rows`` is omitted (``R == T``).
        Partial preference lists are padded with ``-1`` (skipped) or
        with repeats of an already-listed cluster (revisits are no-ops
        — a visited cluster has either been drained or fully served the
        state).
    limits:
        ``(n_clusters,)`` shared or ``(T, n_clusters)`` per-step
        ceilings.
    state_order:
        ``(T, n_states)`` processing order per step; defaults to
        descending demand per step, so big states claim their
        preferred clusters first and fragmented spill is minimised.
    out / out_rows:
        Optional destination: write step ``i``'s allocation into
        ``out[out_rows[i]]`` instead of materialising a fresh tensor.
        ``out`` must be a C-contiguous float64 tensor; the walk
        zero-fills each row it writes and leaves the others alone.
        This is how the spill repair of a mostly-fast batch writes
        straight into the big allocation tensor.

    Raises
    ------
    InfeasibleAllocationError
        If any step's total demand exceeds its summed limits.
    """
    demand = np.asarray(demand, dtype=float)
    n_steps, n_states = demand.shape
    limits = np.asarray(limits, dtype=float)
    n_clusters = limits.shape[-1]
    headroom = np.empty((n_steps, n_clusters))
    headroom[...] = limits

    # A row holding inf, -inf or NaN counts as unbounded; elsewhere the
    # plain row sum is the summed finite limits.
    totals = demand.sum(axis=1)
    total_limits = headroom.sum(axis=1)
    infeasible = totals > total_limits + 1e-6
    if infeasible.any():
        infeasible &= np.isfinite(headroom).all(axis=1)
        if infeasible.any():
            t = int(np.argmax(infeasible))
            raise InfeasibleAllocationError(
                f"demand {totals[t]:.0f} hits/s exceeds total limit "
                f"{total_limits[t]:.0f} at step {t}"
            )

    order = state_order if state_order is not None else (-demand).argsort(axis=1)
    if out is None:
        out = np.empty((n_steps, n_states, n_clusters))
    with _profiling().phase("greedy_repair"):
        _walk(
            demand,
            preference_orders,
            headroom,
            order,
            out,
            out_rows,
            preference_rows=preference_rows,
            where=" at step {}",
        )
    return out


def _walk(
    demand: np.ndarray,
    prefs: np.ndarray,
    headroom: np.ndarray,
    order: np.ndarray,
    out: np.ndarray,
    out_rows: np.ndarray | None,
    *,
    preference_rows: np.ndarray | None = None,
    where: str,
) -> None:
    """Run the C greedy walk over ``(T, n_states)`` demand into ``out``.

    ``headroom`` (``(T, n_clusters)`` float64) is consumed in place;
    ``prefs`` and ``preference_rows`` are as for
    :func:`greedy_fill_batch`. ``where`` suffixes the error message,
    with ``{}`` standing for the step.
    """
    n_steps, n_states = demand.shape
    n_clusters = headroom.shape[1]
    demand = np.ascontiguousarray(demand, dtype=np.float64)
    prefs = np.ascontiguousarray(prefs, dtype=np.int64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    if prefs.ndim not in (2, 3) or prefs.shape[-2] != n_states:
        raise ConfigurationError(
            f"preference orders must be ({n_states}, k) or (blocks, {n_states}, k), "
            f"got shape {prefs.shape}"
        )
    if order.shape != (n_steps, n_states):
        raise ConfigurationError(
            f"state order must be ({n_steps}, {n_states}), got shape {order.shape}"
        )
    for name, array, shape in (
        ("headroom", headroom, (n_steps, n_clusters)),
        ("out tensor", out, (out.shape[0], n_states, n_clusters)),
    ):
        flags = array.flags
        if not (flags.c_contiguous and flags.writeable) or array.dtype != np.float64:
            raise ConfigurationError(f"greedy fill {name} must be C-contiguous writable float64")
        if array.shape != shape:
            raise ConfigurationError(f"greedy fill {name} must be {shape}, got {array.shape}")
    blocks, block_of = 1, None
    if prefs.ndim == 3:
        blocks = prefs.shape[0]
        if preference_rows is None and blocks != n_steps:
            raise ConfigurationError(
                f"{blocks} preference blocks for {n_steps} steps need preference_rows"
            )
    if preference_rows is not None:
        block_of = np.ascontiguousarray(preference_rows, dtype=np.int64)
    if out_rows is not None:
        out_rows = np.ascontiguousarray(out_rows, dtype=np.int64)
    for name, rows in (("preference_rows", block_of), ("out_rows", out_rows)):
        if rows is not None and rows.shape != (n_steps,):
            raise ConfigurationError(f"{name} must be ({n_steps},), got {rows.shape}")
    failure = np.zeros(3)
    status = greedy_walk(
        n_steps,
        n_states,
        n_clusters,
        prefs.shape[-1],
        demand.ctypes.data,
        prefs.ctypes.data,
        blocks,
        None if block_of is None else block_of.ctypes.data,
        headroom.ctypes.data,
        order.ctypes.data,
        out.ctypes.data,
        out.shape[0],
        None if out_rows is None else out_rows.ctypes.data,
        failure.ctypes.data,
    )
    if status == WALK_INFEASIBLE:
        step, state, unplaced = failure
        raise InfeasibleAllocationError(
            f"could not place {unplaced:.1f} hits/s for state index "
            f"{int(state)}{where.format(int(step))}"
        )
    if status == WALK_BAD_INDEX:
        raise ConfigurationError(
            "greedy walk index out of range (state order, preference, preference row "
            "or out row)"
        )
    if status == WALK_NOMEM:
        raise MemoryError("greedy walk could not allocate its scratch buffers")
