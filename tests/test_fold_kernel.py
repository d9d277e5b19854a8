"""The engine ledger's ``fold_rows`` kernel against the buffered fold.

``_Ledger.fold`` makes one C pass over each fold's allocations: it
writes every step's per-cluster loads and adds the step into a running
``(n_states, n_clusters)`` chunk sum. ``fold_oracle.BufferedLedger`` is
the fold it replaced, which buffered a chunk of steps and reduced it at
the boundary. However a stream is split into folds — single rows,
folds that cross a chunk boundary, a short tail — the loads and totals
must be byte-equal.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import _Ledger

import fold_oracle

VALUES = st.sampled_from([0.0, -0.0, 1.0, 1e-9, 1e16, 3.0]) | st.floats(-1e6, 1e6)


def _ledger(n_steps: int, n_states: int, n_clusters: int, chunk: int) -> _Ledger:
    horizon = SimpleNamespace(
        problem=SimpleNamespace(n_states=n_states, n_clusters=n_clusters),
        n_steps=n_steps,
        caps=None,
        chunk_steps=chunk,
    )
    return _Ledger(horizon)


@st.composite
def streams(draw):
    n_states = draw(st.integers(1, 49))
    n_clusters = draw(st.integers(1, 9))
    n_steps = draw(st.integers(1, 40))
    chunk = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    cuts = draw(st.lists(st.integers(1, n_steps - 1), max_size=12)) if n_steps > 1 else []
    rng = np.random.default_rng(seed)
    allocations = rng.random((n_steps, n_states, n_clusters)) * 10.0 ** rng.integers(-3, 6)
    specials = draw(st.lists(VALUES, max_size=8))
    if specials:
        cells = rng.integers(0, allocations.size, size=len(specials))
        allocations.ravel()[cells] = specials
    return allocations, chunk, sorted(set(cuts))


@settings(max_examples=300, deadline=None)
@given(streams())
def test_fold_rows_equals_buffered_fold_for_any_split(stream):
    allocations, chunk, cuts = stream
    n_steps, n_states, n_clusters = allocations.shape
    ledger = _ledger(n_steps, n_states, n_clusters, chunk)
    oracle = fold_oracle.BufferedLedger(n_steps, n_states, n_clusters, chunk)
    bounds = [0, *cuts, n_steps]
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        ledger.fold(t0, allocations[t0:t1])
        oracle.fold(t0, allocations[t0:t1])
    assert ledger.loads.tobytes() == oracle.loads.tobytes()
    assert ledger.reducer.total.tobytes() == oracle.total.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    n_steps=st.integers(1, 300),
    n_states=st.integers(1, 49),
    n_clusters=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_numpy_sums_add_in_sequence_on_engine_shapes(n_steps, n_states, n_clusters, seed):
    # With more than one cluster, numpy's sums over the state and step
    # axes are the oracle's sequential adds, so the buffered fold the
    # engine used is the oracle, bit for bit.
    allocations = np.random.default_rng(seed).random((n_steps, n_states, n_clusters))
    state_sums = fold_oracle.state_sums(allocations)
    assert allocations.sum(axis=1).tobytes() == state_sums.tobytes()
    assert allocations.sum(axis=0).tobytes() == fold_oracle.step_sum(allocations).tobytes()
