"""The engine ledger's buffered fold: the bitwise oracle for ``fold_rows``.

Before the ``fold_rows`` kernel (``repro/kernels.c``), ``_Ledger.fold``
wrote each step's loads as ``allocations.sum(axis=1)``, copied the
allocations into a ``(chunk, n_states, n_clusters)`` buffer, and added
``buffer[:size].sum(axis=0)`` into the totals at every chunk boundary.
:class:`BufferedLedger` is that fold, with numpy's two sums written as
the sequential adds numpy makes on every shape with ``n_clusters > 1``
and ``n_states * n_clusters > 1`` (``test_fold_kernel.py`` checks that
it does). On the degenerate shapes numpy coalesces the reduced axis
into a pairwise sum; there the sequential order is the contract.
"""

from __future__ import annotations

import numpy as np


def state_sums(allocations: np.ndarray) -> np.ndarray:
    """``(k, n_clusters)`` loads: each step summed over states, in state
    order from 0.0 (numpy's ``allocations.sum(axis=1)``)."""
    loads = np.zeros((allocations.shape[0], allocations.shape[2]))
    for s in range(allocations.shape[1]):
        loads += allocations[:, s, :]
    return loads


def step_sum(rows: np.ndarray) -> np.ndarray:
    """The rows of a chunk summed in step order from 0.0 (numpy's
    ``rows.sum(axis=0)``)."""
    total = np.zeros(rows.shape[1:])
    for row in rows:
        total += row
    return total


class BufferedLedger:
    """Loads and (state, cluster) totals of one stream of ``n_steps``
    steps, folded in chunks of ``chunk`` steps through a step buffer."""

    def __init__(self, n_steps: int, n_states: int, n_clusters: int, chunk: int) -> None:
        self.n_steps, self.chunk = n_steps, chunk
        self.loads = np.empty((n_steps, n_clusters))
        self._buffer = np.zeros((min(n_steps, chunk), n_states, n_clusters))
        self.total = np.zeros((n_states, n_clusters))

    def fold(self, t0: int, allocations: np.ndarray) -> None:
        """Account allocations for steps ``t0 .. t0 + k - 1``."""
        k = allocations.shape[0]
        self.loads[t0 : t0 + k] = state_sums(allocations)
        i = 0
        while i < k:
            offset = (t0 + i) % self.chunk
            span = min(k - i, self.chunk - offset)
            self._buffer[offset : offset + span] = allocations[i : i + span]
            end = t0 + i + span
            if end % self.chunk == 0 or end == self.n_steps:
                self.total += step_sum(self._buffer[: offset + span])
            i += span
