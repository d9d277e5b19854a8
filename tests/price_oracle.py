"""The price router's numpy ranking: the bitwise oracle for ``price_rank``.

``allocate_batch`` is ``PriceConsciousRouter.allocate_batch`` as it
stood before the choice, the fit test and the spill orders moved into
the C kernel ``price_rank`` (``repro/kernels.c``): consecutive equal
price rows are found, each run's candidate-masked prices, cutoffs and
choices are computed as ``(runs, n_states, n_clusters)`` tensors, the
steps that fit take their choices, and the others walk the stable
lexsort of :func:`preference_orders` through ``greedy_fill_batch``.

:func:`rank` is the same prelude without the walk: every row's choice
and spill orders, which the kernel must reproduce byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import greedy_fill_batch


def masks(candidates: list[np.ndarray], distances: np.ndarray):
    """The candidate mask, the candidate-masked distances (``inf``
    elsewhere), and the padding mask of positions past each state's
    candidate count."""
    n_states, n_clusters = distances.shape
    mask = np.zeros((n_states, n_clusters), dtype=bool)
    for s, cands in enumerate(candidates):
        mask[s, cands] = True
    counts = np.array([c.size for c in candidates])
    padding = np.arange(n_clusters)[None, :] >= counts[:, None]
    return mask, np.where(mask, distances, np.inf), padding


def preference_orders(mask, distances, masked_prices, cutoff):
    """Every state's clusters ordered by (price bucket, distance).

    Prices within the threshold of a state's cheapest candidate
    (``cutoff``) form the cheap bucket; within it, closer wins, and
    spill continues to pricier candidates by price, then distance. One
    stable lexsort over the last axis of the ``(..., n_states,
    n_clusters)`` candidate-masked prices orders every state of every
    row at once; non-candidates are forced into a trailing bucket, so
    each row starts with the state's candidates in preference order.
    """
    bucket = np.where(mask, (masked_prices > cutoff[..., None]).astype(np.int8), 2)
    within_bucket_price = np.where(bucket == 0, 0.0, masked_prices)
    distance_key = np.broadcast_to(distances, masked_prices.shape)
    return np.lexsort((distance_key, within_bucket_price, bucket), axis=-1)


def rank(candidates, distances, price_threshold, prices):
    """Every row's choice ``(T, n_states)`` and padded spill orders
    ``(T, n_states, n_clusters)``, as the numpy router computed them."""
    mask, masked_distance, padding = masks(candidates, distances)
    masked_prices = np.where(mask[None, :, :], prices[:, None, :], np.inf)
    with np.errstate(invalid="ignore"):  # -inf + inf: a NaN cutoff
        cutoff = masked_prices.min(axis=2) + price_threshold
    cheap = masked_prices <= cutoff[:, :, None]
    choice = np.where(cheap, masked_distance[None, :, :], np.inf).argmin(axis=2)
    orders = preference_orders(mask, distances, masked_prices, cutoff)
    return choice, np.where(padding, -1, orders)


def allocate_batch(router, demand, prices, limits):
    """The numpy ``allocate_batch`` of a configured price router."""
    demand = np.asarray(demand, dtype=float)
    prices = np.asarray(prices, dtype=float)
    limits = np.asarray(limits, dtype=float)
    mask, masked_distance, padding = masks(router._candidates, router._distances)
    n_steps = demand.shape[0]
    n_states, n_clusters = mask.shape

    starts = np.empty(n_steps, dtype=bool)
    starts[:1] = True
    (prices[1:] != prices[:-1]).any(axis=1, out=starts[1:])
    run_of = starts.cumsum(dtype=np.intp) - 1
    masked_prices = np.where(mask[None, :, :], prices[starts][:, None, :], np.inf)
    with np.errstate(invalid="ignore"):  # -inf + inf: a NaN cutoff
        cutoff = masked_prices.min(axis=2) + router.price_threshold
    cheap = masked_prices <= cutoff[:, :, None]
    choice_key = np.where(cheap, masked_distance[None, :, :], np.inf)
    preferred = choice_key.argmin(axis=2)[run_of]

    flat = (np.arange(n_steps)[:, None] * n_clusters + preferred).ravel()
    loads = np.bincount(
        flat,
        weights=demand.ravel(),
        minlength=n_steps * n_clusters,
    ).reshape(n_steps, n_clusters)
    fits = (loads <= limits + 1e-9).all(axis=1)

    allocation = np.zeros((n_steps, n_states, n_clusters))
    fast = fits.nonzero()[0]
    if fast.size:
        allocation[fast[:, None], np.arange(n_states)[None, :], preferred[fast]] = demand[fast]
    spill = (~fits).nonzero()[0]
    if spill.size:
        spill_run = run_of[spill]
        ranked_runs = np.zeros(len(masked_prices), dtype=bool)
        ranked_runs[spill_run] = True
        ranked = preference_orders(
            mask, router._distances, masked_prices[ranked_runs], cutoff[ranked_runs]
        )
        spill_run = (ranked_runs.cumsum() - 1)[spill_run]
        greedy_fill_batch(
            demand[spill],
            np.where(padding, -1, ranked),
            limits[spill] if limits.ndim == 2 else limits,
            preference_rows=spill_run,
            out=allocation,
            out_rows=spill,
        )
    return allocation
