"""Routing abstractions.

A *router* maps one time step's per-state demand onto clusters, given
the electricity prices it can currently see and the effective capacity
limits. Routers are deliberately stateless across steps except through
the limits they are handed (the 95/5 tracker lives in the simulation
engine), which keeps every scheme replayable and comparable.

Routers may additionally implement ``allocate_batch``, the vectorised
form over a whole run of steps; :func:`batch_allocate` dispatches to it
when present and otherwise falls back to sequential per-step
``allocate`` calls, so the simulation engine can always hand routers
maximal runs of steps at once.
"""

from __future__ import annotations

from typing import Protocol

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
    "greedy_fill",
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


class Router(Protocol):
    """One allocation policy.

    ``allocate`` returns a ``(n_states, n_clusters)`` matrix of hit
    rates; row sums must equal the demand vector (all demand is always
    served — §1's problem statement assumes full replication).

    Routers may *additionally* provide an ``allocate_batch(demand,
    prices, limits)`` method — the vectorised form over ``T`` steps,
    taking ``(T, n_states)`` demand, ``(T, n_clusters)`` prices, and
    shared ``(n_clusters,)`` or per-step ``(T, n_clusters)`` limits,
    and returning a ``(T, n_states, n_clusters)`` tensor whose step
    ``t`` slice equals ``allocate(demand[t], prices[t], limits[t])``
    exactly. It is deliberately not part of this protocol (scalar-only
    routers remain conformant); :func:`batch_allocate` discovers it by
    duck typing and supplies the sequential fallback otherwise.

    Routers whose ``allocate`` raises
    :class:`~repro.errors.InfeasibleAllocationError` *exactly* when a
    step's total demand exceeds its summed finite limits (the
    :func:`greedy_fill` predicate — true of every greedy-fill-backed
    policy here) may advertise it with a class attribute
    ``strict_infeasibility = True``; the engine then routes 95/5 burst
    steps through one batched call against plain capacity instead of a
    per-step try/except replay. Routers that ignore limits (the static
    hub) or have bespoke infeasibility semantics must leave it unset.
    """

    def allocate(
        self,
        demand: np.ndarray,
        prices: np.ndarray,
        limits: np.ndarray,
    ) -> np.ndarray:
        """Map ``demand`` (hits/s per state) to clusters.

        Parameters
        ----------
        demand:
            Per-state request rates for this step.
        prices:
            The prices the router is allowed to see (already lagged by
            the reaction delay), one per cluster, $/MWh.
        limits:
            Effective per-cluster load ceilings for this step (capacity
            and/or the 95/5 ceiling). ``inf`` means unconstrained.
        """
        ...


def batch_allocate(
    router: Router,
    demand: np.ndarray,
    prices: np.ndarray,
    limits: np.ndarray,
) -> np.ndarray:
    """Allocate a whole run of steps, vectorised when the router can.

    Dispatches to ``router.allocate_batch`` when the router defines it;
    otherwise runs the generic shim — sequential ``allocate`` calls in
    step order (preserving per-step semantics for any router that only
    implements the scalar protocol).

    A single step also takes the shim: the batched-router contract
    makes the scalar ``allocate`` bitwise equal to the batch form, and
    it skips the batch form's fixed per-call cost — the common case of
    a ``/route`` request fed alone.

    Inputs are validated once, before either path runs: ``demand``
    ``(T, n_states)``, ``prices`` ``(T, n_clusters)`` and ``limits``
    ``(n_clusters,)`` or ``(T, n_clusters)``, with one cluster count
    between prices and limits, and no NaN in ``demand``, ``prices`` or
    ``limits``. A NaN price makes no cluster cheapest, so a router
    would place states outside their candidate sets; ``inf`` prices
    are legal.

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
    batch = getattr(router, "allocate_batch", None)
    if batch is not None and n_steps != 1:
        return batch(demand, prices, limits)
    n_clusters = limits.shape[-1]
    # Shared limits are handed to every step as the same preallocated
    # row — no (T, C) broadcast materialisation, and the shape checks
    # above run before the output tensor is allocated.
    shared_row = limits if limits.ndim == 1 else None
    allocations = np.empty((n_steps, demand.shape[1], n_clusters))
    for t in range(n_steps):
        row = shared_row if shared_row is not None else limits[t]
        allocations[t] = router.allocate(demand[t], prices[t], row)
    return allocations


def greedy_fill(
    demand: np.ndarray,
    preference_orders: np.ndarray | list,
    limits: np.ndarray,
    state_order: np.ndarray | None = None,
) -> np.ndarray:
    """Allocate each state's demand along its cluster preference order.

    The workhorse shared by the baseline and price-conscious routers:
    walk states (largest demand first by default), pour each state's
    demand into its most-preferred cluster with remaining headroom, and
    spill the remainder down the preference list — the paper's
    "iteratively finds another good cluster" behaviour. One step of
    :func:`greedy_fill_batch`'s walk.

    Parameters
    ----------
    demand:
        ``(n_states,)`` hit rates.
    preference_orders:
        Per state, cluster indices from most to least preferred: a
        rectangular ``(n_states, k)`` integer array (what the routers
        pass; ``-1`` entries are padding), or one sequence per state,
        padded here. Orders may omit clusters; a final pass
        over the unlisted clusters (by descending remaining headroom,
        ties toward the lower index) guarantees feasibility.
    limits:
        ``(n_clusters,)`` ceilings for this step.
    state_order:
        Optional processing order (defaults to descending demand, so
        big states claim their preferred clusters first and fragmented
        spill is minimised).

    Raises
    ------
    InfeasibleAllocationError
        If total demand exceeds the summed limits.
    """
    total_demand = float(demand.sum())
    total_limit = float(limits[np.isfinite(limits)].sum()) + (
        np.inf if np.isinf(limits).any() else 0.0
    )
    if total_demand > total_limit + 1e-6:
        raise InfeasibleAllocationError(
            f"demand {total_demand:.0f} hits/s exceeds total limit {total_limit:.0f}"
        )

    demand = np.asarray(demand)
    order = state_order if state_order is not None else np.argsort(-demand)
    allocation = np.zeros((1, demand.shape[0], limits.shape[0]))
    _walk(
        demand[None],
        _preference_matrix(preference_orders),
        np.array(limits, dtype=float)[None],
        np.asarray(order)[None],
        allocation,
        None,
        where="",
    )
    return allocation[0]


def _preference_matrix(preference_orders: np.ndarray | list) -> np.ndarray:
    """Per-state preference sequences as one rectangular index matrix.

    Short rows are padded with ``-1``, which the walk skips.
    """
    if isinstance(preference_orders, np.ndarray) and preference_orders.ndim == 2:
        return preference_orders
    rows = [np.asarray(prefs, dtype=np.int64).ravel() for prefs in preference_orders]
    matrix = np.full((len(rows), max((len(r) for r in rows), default=0)), -1, dtype=np.int64)
    for s, prefs in enumerate(rows):
        matrix[s, : len(prefs)] = prefs
    return matrix


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
    """Vectorised-over-time :func:`greedy_fill` for a run of steps.

    The feasibility check is vectorised over the batch; the spill runs
    in the C kernel (``greedy_walk`` in ``repro/kernels.c``), one step after another, with
    the same ``min``/subtract sequence on the same operands in the same
    order as calling :func:`greedy_fill` once per step, so every step
    is bitwise equal to it.

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
        descending demand per step, matching :func:`greedy_fill`.
    out / out_rows:
        Optional destination: write step ``i``'s allocation into
        ``out[out_rows[i]]`` instead of materialising a fresh tensor.
        ``out`` must be a C-contiguous float64 tensor whose rows are
        zero-filled; this is how the spill repair of a mostly-fast
        batch writes straight into the big allocation tensor.

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
    # plain row sum is the finite sum greedy_fill compares against.
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
        out = np.zeros((n_steps, n_states, n_clusters))
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
