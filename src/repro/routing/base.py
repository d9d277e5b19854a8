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
from repro.traffic.clusters import ClusterDeployment

__all__ = [
    "Router",
    "RoutingProblem",
    "batch_allocate",
    "greedy_fill",
    "greedy_fill_batch",
    "fallback_rest_table",
    "deployment_distance_table",
]

#: Batched fills of fewer steps than this walk each step on Python
#: floats (:func:`_spill_walk`, the scalar walk); longer ones take the
#: vectorised walk, whose fixed cost of ~12 numpy calls per (state
#: rank, preference position) only pays off over many steps. 192 is
#: the measured crossover for spilling steps on the two-CPU reference
#: box (see ``docs/performance.md``, "Router per-call cost").
_VECTOR_WALK_MIN_STEPS = 192


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
    between prices and limits, and no NaN in ``demand`` or ``limits``
    (the scalar and batched fills would treat a NaN differently).

    Raises
    ------
    ConfigurationError
        If the shapes disagree or ``demand`` or ``limits`` holds NaN.
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


def fallback_rest_table(
    preference_orders: list[np.ndarray] | np.ndarray,
    n_clusters: int,
) -> list[np.ndarray]:
    """Per-state unlisted-cluster tables for :func:`greedy_fill` callers.

    For each state's preference list, the ascending indices of the
    clusters it does *not* list — the only clusters the fallback pass
    can actually take from. Preference lists are fixed per router (the
    candidate *sets* never change even when per-step prices reorder
    them), so callers compute this once at construction instead of
    re-deriving the mask inside every scalar ``greedy_fill`` call.
    """
    table = []
    for prefs in preference_orders:
        listed = np.zeros(n_clusters, dtype=bool)
        listed[np.asarray(prefs)] = True
        table.append(np.flatnonzero(~listed))
    return table


def greedy_fill(
    demand: np.ndarray,
    preference_orders: list[np.ndarray],
    limits: np.ndarray,
    state_order: np.ndarray | None = None,
    fallback_rest: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Allocate each state's demand along its cluster preference order.

    The workhorse shared by the baseline and price-conscious routers:
    walk states (largest demand first by default), pour each state's
    demand into its most-preferred cluster with remaining headroom, and
    spill the remainder down the preference list — the paper's
    "iteratively finds another good cluster" behaviour.

    Parameters
    ----------
    demand:
        ``(n_states,)`` hit rates.
    preference_orders:
        Per state, an array of cluster indices from most to least
        preferred. Orders may omit clusters; a final pass over *all*
        clusters (by remaining headroom) guarantees feasibility.
    limits:
        ``(n_clusters,)`` ceilings for this step.
    state_order:
        Optional processing order (defaults to descending demand, so
        big states claim their preferred clusters first and fragmented
        spill is minimised).
    fallback_rest:
        Optional precomputed per-state unlisted-cluster tables (see
        :func:`fallback_rest_table`). Purely a hot-path shortcut — the
        fallback visits the same clusters in the same order either
        way.

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
    allocation = np.zeros((demand.shape[0], limits.shape[0]))
    cells: list[int] = []
    takes: list[float] = []
    _spill_walk(
        np.asarray(demand, dtype=float).tolist(),
        preference_orders,
        np.array(limits, dtype=float).tolist(),
        np.asarray(order).tolist(),
        cells,
        takes,
        fallback_rest=fallback_rest,
    )
    np.put(allocation, cells, takes)
    return allocation


def _spill_walk(
    demand: list[float],
    preference_orders,
    headroom: list[float],
    order: list[int],
    cells: list[int],
    takes: list[float],
    *,
    fallback_rest: list[np.ndarray] | None = None,
    offset: int = 0,
    where: str = "",
) -> None:
    """The greedy spill of one step, on Python floats and lists.

    numpy float64 and Python float are the same IEEE-754 double, so
    every comparison, ``min`` and subtraction here rounds exactly as it
    would on numpy scalars, without the per-element boxing.

    ``headroom`` is consumed in place. Each positive take is appended
    as its flat allocation index (``offset + state * n_clusters +
    cluster``) to ``cells`` and its amount to ``takes``, for one
    scatter into a zeroed tensor. A state takes from a cluster at most
    once: a take either places the rest of the state (the walk moves
    on) or drains the cluster to exactly zero headroom (``h - h``), so
    later visits take nothing. The scatter therefore writes each cell
    once, and ``0.0 + take`` is ``take``. ``where`` suffixes the error
    message (the batched caller names the step).
    """
    n_clusters = len(headroom)
    add_cell = cells.append
    add_take = takes.append
    for s in order:
        remaining = demand[s]
        if remaining <= 0.0:
            continue
        row = offset + s * n_clusters
        prefs = preference_orders[s]
        if isinstance(prefs, np.ndarray):
            prefs = prefs.tolist()
        # ``h if h < remaining else remaining`` is ``min(remaining, h)``,
        # ties and NaN included, minus the builtin call.
        for c in prefs:
            if remaining <= 0.0:
                break
            h = headroom[c]
            take = h if h < remaining else remaining
            if take <= 0.0:
                continue
            add_cell(row + c)
            add_take(take)
            headroom[c] = h - take
            remaining -= take
        if remaining > 1e-9:
            if fallback_rest is not None:
                rest = fallback_rest[s]
            else:
                listed = set(prefs)
                rest = np.array([c for c in range(n_clusters) if c not in listed], dtype=np.intp)
            for c in _fallback_order(prefs, np.array(headroom), rest).tolist():
                h = headroom[c]
                take = h if h < remaining else remaining
                if take <= 0.0:
                    continue
                add_cell(row + c)
                add_take(take)
                headroom[c] = h - take
                remaining -= take
                if remaining <= 0.0:
                    break
        if remaining > 1e-6:
            raise InfeasibleAllocationError(
                f"could not place {remaining:.1f} hits/s for state index {s}{where}"
            )


def _fallback_order(
    prefs: np.ndarray,
    headroom: np.ndarray,
    rest: np.ndarray | None = None,
) -> np.ndarray:
    """Visit order for demand that overflowed a partial preference list.

    The state's own preference order is honoured first — any listed
    cluster that still has headroom is preferred over an unlisted one —
    and only then do the unlisted clusters follow, by descending
    headroom. Ties in headroom break toward the lower cluster index
    (stable sort), so spill is deterministic and independent of the
    sort algorithm's internals.

    ``rest`` is the precomputed ascending unlisted-cluster table (see
    :func:`fallback_rest_table`); when omitted it is derived here,
    exactly as callers without a table always did.
    """
    prefs = np.asarray(prefs)
    if rest is None:
        listed = np.zeros(headroom.shape[0], dtype=bool)
        listed[prefs] = True
        rest = np.flatnonzero(~listed)
    if rest.size == 0:
        return prefs
    rest = rest[np.argsort(-headroom[rest], kind="stable")]
    return np.concatenate([prefs, rest])


def greedy_fill_batch(
    demand: np.ndarray,
    preference_orders: np.ndarray,
    limits: np.ndarray,
    state_order: np.ndarray | None = None,
    *,
    distinct_prefs: bool = False,
    out: np.ndarray | None = None,
    out_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorised-over-time :func:`greedy_fill` for a run of steps.

    Runs the same greedy spill as :func:`greedy_fill` on every step of
    a batch. The feasibility check is vectorised over the batch; the
    spill itself takes one of two walks, both numerically identical,
    step for step, to calling :func:`greedy_fill` once per step (every
    take performs the same ``min``/subtract sequence on the same
    operands in the same order):

    - fewer than ``_VECTOR_WALK_MIN_STEPS`` steps: the scalar walk on
      Python floats, once per step, with one scatter of all takes;
    - more: a walk over (state rank x preference position) instead of
      time, so each inner operation is an O(T) array op. Its fixed
      cost of ~12 numpy calls per (rank, position) is what the short
      batches avoid. The inner walk is allocation-free: index
      arithmetic runs in int32 scratch buffers whenever the flat
      allocation span fits (always, at paper scale), dead rows are
      compacted away once a rank's live set halves, and takes scatter
      straight into the output tensor.

    Parameters
    ----------
    demand:
        ``(T, n_states)`` hit rates.
    preference_orders:
        ``(n_states, k)`` cluster preference matrix shared by all
        steps, or ``(T, n_states, k)`` per-step orders, most preferred
        first. Unlike :func:`greedy_fill`'s per-state lists this must
        be rectangular; partial preference lists are expressed by
        padding a row with repeats of an already-listed cluster
        (revisits are no-ops — a visited cluster has either been
        drained or fully served the state).
    limits:
        ``(n_clusters,)`` shared or ``(T, n_clusters)`` per-step
        ceilings.
    state_order:
        ``(T, n_states)`` processing order per step; defaults to
        descending demand per step, matching :func:`greedy_fill`.
    distinct_prefs:
        Promise that every preference row is a permutation (no padded
        repeats), letting the walk scatter with ``=`` instead of a
        gather-add-scatter. Callers passing full ``argsort`` orders
        (the joint router) set it; padded orders (the price router)
        must not.
    out / out_rows:
        Optional destination: write step ``i``'s allocation into
        ``out[out_rows[i]]`` instead of materialising a fresh tensor.
        ``out`` rows must be zero-filled; this is how the spill repair
        of a mostly-fast batch writes straight into the big allocation
        tensor.

    Raises
    ------
    InfeasibleAllocationError
        If any step's total demand exceeds its summed limits.
    """
    demand = np.asarray(demand, dtype=float)
    n_steps, n_states = demand.shape
    prefs = np.asarray(preference_orders)
    limits = np.asarray(limits, dtype=float)
    n_clusters = limits.shape[-1]
    headroom = np.empty((n_steps, n_clusters))
    headroom[...] = limits

    finite = np.isfinite(headroom)
    totals = demand.sum(axis=1)
    total_limits = np.where(
        finite.all(axis=1),
        np.where(finite, headroom, 0.0).sum(axis=1),
        np.inf,
    )
    infeasible = totals > total_limits + 1e-6
    if infeasible.any():
        t = int(np.argmax(infeasible))
        raise InfeasibleAllocationError(
            f"demand {totals[t]:.0f} hits/s exceeds total limit "
            f"{total_limits[t]:.0f} at step {t}"
        )

    order = state_order if state_order is not None else (-demand).argsort(axis=1)
    with _profiling().phase("greedy_repair"):
        if n_steps < _VECTOR_WALK_MIN_STEPS:
            return _walk_each_step(demand, prefs, headroom, order, out, out_rows)
        return _greedy_fill_batch_numpy(
            demand, prefs, headroom, order, distinct_prefs, out, out_rows
        )


def _walk_each_step(
    demand: np.ndarray,
    prefs: np.ndarray,
    headroom: np.ndarray,
    order: np.ndarray,
    out: np.ndarray | None,
    out_rows: np.ndarray | None,
) -> np.ndarray:
    """:func:`_spill_walk` once per step, for fills too short to vectorise."""
    n_steps, n_states = demand.shape
    n_clusters = headroom.shape[1]
    if out is None:
        out = np.zeros((n_steps, n_states, n_clusters))
        out_rows = range(n_steps)
    elif not out.flags.c_contiguous:
        raise ConfigurationError("greedy_fill_batch out tensor must be C-contiguous")
    shared = prefs.tolist() if prefs.ndim == 2 else None
    heads = headroom.tolist()
    orders = np.asarray(order).tolist()
    cells: list[int] = []
    takes: list[float] = []
    for i, (row, out_row) in enumerate(zip(demand.tolist(), out_rows)):
        _spill_walk(
            row,
            shared if shared is not None else prefs[i].tolist(),
            heads[i],
            orders[i],
            cells,
            takes,
            offset=int(out_row) * n_states * n_clusters,
            where=f" at step {i}",
        )
    np.put(out, cells, takes)
    return out


def _greedy_fill_batch_numpy(
    demand: np.ndarray,
    prefs: np.ndarray,
    headroom: np.ndarray,
    order: np.ndarray,
    distinct_prefs: bool,
    out: np.ndarray | None,
    out_rows: np.ndarray | None,
) -> np.ndarray:
    """The vectorised (rank x position) walk over flat scratch buffers."""
    n_steps, n_states = demand.shape
    n_clusters = headroom.shape[1]
    if out is None:
        allocation = np.zeros((n_steps, n_states, n_clusters))
        row_ids = None
        flat_span = allocation.size
    else:
        if not out.flags.c_contiguous:
            raise ConfigurationError("greedy_fill_batch out tensor must be C-contiguous")
        allocation = out
        row_ids = np.asarray(out_rows)
        flat_span = allocation.size
    alloc_flat = allocation.reshape(-1)

    # Index arithmetic runs in int32 when the flat allocation span
    # fits (it always does at paper scale); int64 otherwise.
    ixt = np.int32 if flat_span < 2**31 else np.int64
    per_step = prefs.ndim == 3
    n_prefs = prefs.shape[-1]

    # With non-negative limits every take is already >= 0, so the
    # scalar walk's clamp is a bitwise no-op the hot loop can skip.
    nonneg = bool(np.all(headroom >= 0))
    demand_flat = demand.ravel()
    head_flat = headroom.reshape(-1)
    prefs_x = np.ascontiguousarray(prefs, dtype=ixt).reshape(-1)
    arange_steps = np.arange(n_steps, dtype=ixt)
    rows_s = arange_steps * ixt(n_states)
    rows_c = arange_steps * ixt(n_clusters)
    if row_ids is None:
        out_rows_s = rows_s
    else:
        out_rows_s = row_ids.astype(ixt) * ixt(n_states)
    order_t = np.ascontiguousarray(order.T, dtype=ixt)

    # Per-call scratch: every inner-loop operand writes into one of
    # these slices, so the (rank, position) walk allocates nothing.
    i_c = np.empty(n_steps, dtype=ixt)
    i_p = np.empty(n_steps, dtype=ixt)
    i_h = np.empty(n_steps, dtype=ixt)
    i_a = np.empty(n_steps, dtype=ixt)
    f_h = np.empty(n_steps)
    f_t = np.empty(n_steps)
    s_pbase = np.empty(n_steps, dtype=ixt)
    s_abase = np.empty(n_steps, dtype=ixt)
    s_rem = np.empty(n_steps)
    s_idx = np.empty(n_steps, dtype=ixt)

    for rank in range(n_states):
        s_t = order_t[rank]
        idx_rs = np.add(rows_s, s_t, out=s_idx)
        remaining = np.take(demand_flat, idx_rs, out=s_rem)
        if per_step:
            pbase = np.multiply(idx_rs, ixt(n_prefs), out=s_pbase)
        else:
            pbase = np.multiply(s_t, ixt(n_prefs), out=s_pbase)
        aidx_base = np.add(out_rows_s, s_t, out=s_abase)
        np.multiply(aidx_base, ixt(n_clusters), out=aidx_base)
        c = np.take(prefs_x, pbase, out=i_c)
        hidx = np.add(rows_c, c, out=i_h)
        h = np.take(head_flat, hidx, out=f_h)
        take = np.minimum(remaining, h, out=f_t)
        if not nonneg:
            np.maximum(take, 0.0, out=take)
        aidx = np.add(aidx_base, c, out=i_a)
        # position 0 is the (t, s) row's first touch: '=' matches '+='
        # on zeros bit for bit (take is never -0.0 after the clamp).
        alloc_flat[aidx] = take
        np.subtract(h, take, out=h)
        head_flat[hidx] = h
        np.subtract(remaining, take, out=remaining)
        mask = remaining > 0.0
        n_act = int(np.count_nonzero(mask))
        if n_act == 0:
            continue
        hrow_base = rows_c
        cur = n_steps
        stale = 0
        for k in range(1, n_prefs):
            # Dead rows (remaining == 0) are bitwise no-ops; compact
            # only once the live set has halved, so the common
            # mostly-live case stays copy-free.
            if n_act * 2 < cur:
                remaining = remaining[mask]
                pbase = pbase[mask]
                aidx_base = aidx_base[mask]
                hrow_base = hrow_base[mask]
                cur = n_act
            pidx = np.add(pbase, ixt(k), out=i_p[:cur])
            c = np.take(prefs_x, pidx, out=i_c[:cur])
            hidx = np.add(hrow_base, c, out=i_h[:cur])
            h = np.take(head_flat, hidx, out=f_h[:cur])
            take = np.minimum(remaining, h, out=f_t[:cur])
            if not nonneg:
                np.maximum(take, 0.0, out=take)
            aidx = np.add(aidx_base, c, out=i_a[:cur])
            if distinct_prefs:
                alloc_flat[aidx] = take
            else:
                a = alloc_flat[aidx]
                a += take
                alloc_flat[aidx] = a
            np.subtract(h, take, out=h)
            head_flat[hidx] = h
            np.subtract(remaining, take, out=remaining)
            # Termination/compaction checks every other position: dead
            # rows are bitwise no-ops, so a stale mask is only a
            # throughput heuristic, never a correctness one.
            stale += 1
            if stale >= 2 or k == n_prefs - 1:
                mask = remaining > 0.0
                n_act = int(np.count_nonzero(mask))
                stale = 0
                if n_act == 0:
                    break
        if n_act:
            remaining = remaining[mask]
            pbase = pbase[mask]
            aidx_base = aidx_base[mask]
            hrow_base = hrow_base[mask]
            over = remaining > 1e-9
            if np.any(over):
                remaining[over] = _fallback_spill_flat(
                    alloc_flat,
                    head_flat,
                    remaining[over],
                    aidx_base[over].astype(np.int64),
                    hrow_base[over].astype(np.int64),
                    pbase[over].astype(np.int64),
                    prefs_x,
                    n_prefs,
                    n_clusters,
                )
            bad = remaining > 1e-6
            if np.any(bad):
                i = int(np.argmax(bad))
                t = int(hrow_base[i]) // n_clusters
                s = int(pbase[i]) // n_prefs
                if per_step:
                    s = s % n_states
                raise InfeasibleAllocationError(
                    f"could not place {remaining[i]:.1f} hits/s for state index "
                    f"{s} at step {t}"
                )
    return allocation


def _fallback_spill_flat(
    alloc_flat: np.ndarray,
    head_flat: np.ndarray,
    rem: np.ndarray,
    aidx_base: np.ndarray,
    hrow_base: np.ndarray,
    pbase: np.ndarray,
    prefs_flat: np.ndarray,
    n_prefs: int,
    n_clusters: int,
) -> np.ndarray:
    """Vectorised fallback pass over the compacted flat rows.

    A row only reaches the fallback after draining every listed
    cluster to exactly zero headroom, so revisiting listed clusters is
    a guaranteed no-op; the pass visits the unlisted clusters in
    :func:`_fallback_order`'s order (descending headroom, ties toward
    the lower index), which reproduces the scalar fallback take for
    take.
    """
    m = rem.shape[0]
    prefs_l = prefs_flat[pbase[:, None] + np.arange(n_prefs)[None, :]]
    listed = np.zeros((m, n_clusters), dtype=bool)
    listed[np.arange(m)[:, None], prefs_l] = True
    hrows = hrow_base[:, None] + np.arange(n_clusters)[None, :]
    head_l = head_flat[hrows]
    key = np.where(listed, -np.inf, head_l)
    fb_order = np.argsort(-key, axis=1, kind="stable")
    lrows = np.arange(m)
    for k in range(n_clusters):
        c = fb_order[:, k]
        take = np.minimum(rem, head_l[lrows, c])
        np.maximum(take, 0.0, out=take)
        aidx = aidx_base + c
        a = alloc_flat[aidx]
        a += take
        alloc_flat[aidx] = a
        head_l[lrows, c] -= take
        rem -= take
    head_flat[hrows] = head_l
    return rem

