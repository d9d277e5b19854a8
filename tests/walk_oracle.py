"""The greedy spill walk in plain Python: the bitwise oracle for the C kernel.

``walk`` has the signature of ``repro.routing.base._walk``, so a test
can swap it in with ``monkeypatch.setattr(routing_base, "_walk",
walk_oracle.walk)`` and replay any router or fill through the Python
walk. It is the scalar walk the routers used before the kernel: every
take is ``h if h < remaining else remaining`` on Python floats (the
same IEEE-754 doubles as numpy float64), subtracted from the cluster's
headroom and the state's remaining demand in that order. Demand left
after a state's preference row spills to the clusters the row does not
list, by descending headroom at the time (a stable sort, so ties go to
the lower index), after a no-op revisit of the listed ones. Like the
kernel, it zero-fills each output row it writes and leaves the other
rows of ``out`` alone.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InfeasibleAllocationError


def walk(demand, prefs, headroom, order, out, out_rows, *, preference_rows=None, where):
    """Walk every step of a batch into ``out`` (see ``routing.base._walk``)."""
    n_steps, n_states = np.shape(demand)
    n_clusters = np.shape(headroom)[1]
    prefs = np.asarray(prefs)
    blocks = [_rows(prefs)] if prefs.ndim == 2 else [_rows(block) for block in prefs]
    if preference_rows is not None:
        block_of = np.asarray(preference_rows).tolist()
    else:
        block_of = [0 if len(blocks) == 1 else i for i in range(n_steps)]
    heads = np.asarray(headroom, dtype=float).tolist()
    orders = np.asarray(order).tolist()
    rows = range(n_steps) if out_rows is None else np.asarray(out_rows).tolist()
    cells: list[int] = []
    takes: list[float] = []
    for i, (step, out_row) in enumerate(zip(np.asarray(demand, dtype=float).tolist(), rows)):
        spill_walk(
            step,
            blocks[block_of[i]],
            heads[i],
            orders[i],
            cells,
            takes,
            offset=int(out_row) * n_states * n_clusters,
            where=where.format(i),
        )
    out[np.asarray(list(rows), dtype=np.intp)] = 0.0
    np.put(out, cells, takes)


def _rows(matrix: np.ndarray) -> list[list[int]]:
    """Preference rows as lists, with ``-1`` padding dropped."""
    return [[c for c in row if c >= 0] for row in matrix.tolist()]


def spill_walk(demand, preference_orders, headroom, order, cells, takes, *, offset=0, where=""):
    """The greedy spill of one step on Python floats and lists.

    ``headroom`` is consumed in place. Each positive take is appended
    as its flat allocation index (``offset + state * n_clusters +
    cluster``) to ``cells`` and its amount to ``takes``.
    """
    n_clusters = len(headroom)
    for s in order:
        remaining = demand[s]
        if remaining <= 0.0:
            continue
        row = offset + s * n_clusters
        prefs = preference_orders[s]
        for c in prefs:
            if remaining <= 0.0:
                break
            h = headroom[c]
            take = h if h < remaining else remaining
            if take <= 0.0:
                continue
            cells.append(row + c)
            takes.append(take)
            headroom[c] = h - take
            remaining -= take
        if remaining > 1e-9:
            for c in fallback_order(prefs, np.array(headroom)).tolist():
                h = headroom[c]
                take = h if h < remaining else remaining
                if take <= 0.0:
                    continue
                cells.append(row + c)
                takes.append(take)
                headroom[c] = h - take
                remaining -= take
                if remaining <= 0.0:
                    break
        if remaining > 1e-6:
            raise InfeasibleAllocationError(
                f"could not place {remaining:.1f} hits/s for state index {s}{where}"
            )


def fallback_order(prefs, headroom: np.ndarray) -> np.ndarray:
    """The listed clusters in preference order, then the unlisted ones
    by descending headroom (stable: ties toward the lower index)."""
    prefs = np.asarray(prefs, dtype=np.intp)
    listed = np.zeros(headroom.shape[0], dtype=bool)
    listed[prefs] = True
    rest = np.flatnonzero(~listed)
    rest = rest[np.argsort(-headroom[rest], kind="stable")]
    return np.concatenate([prefs, rest])
