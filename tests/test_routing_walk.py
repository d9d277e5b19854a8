"""The C greedy walk equals the Python oracle walk byte for byte.

``repro.routing.base._walk`` runs every router's greedy spill in C
(``greedy_walk.c``); ``walk_oracle.walk`` is the same walk in Python,
take for take. This property drives both on the same batches, built to
hit the walk's edge cases: integer demand with zero-demand states and
amounts just around the 1e-9 fallback and 1e-6 infeasibility
thresholds; limits that are zero, negative, ``-0.0``, ``inf``, whole
multiples of a demand or exact partial sums of a step's demand (so
``remaining == headroom`` ties and exact drains occur); distinct,
repeat-padded and ``-1``-padded preference rows, shared, per step or
in blocks that steps pick through ``preference_rows``;
custom state orders; scatter into a larger, NaN-filled tensor through
``out_rows`` (each walked row is zero-filled first, the others keep
their NaN); and infeasible batches, which must raise the same error.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InfeasibleAllocationError
from repro.routing import base as routing_base
from repro.routing.base import greedy_fill_batch

import walk_oracle
from router_oracle import greedy_fill


@st.composite
def walk_cases(draw):
    n_steps = draw(st.one_of(st.integers(1, 8), st.integers(1, 300)))
    n_states = draw(st.integers(1, 11))
    n_clusters = draw(st.integers(1, 7))
    per_step_prefs = draw(st.booleans())
    blocks = draw(st.booleans())
    padding = draw(st.sampled_from(("distinct", "repeat", "negative")))
    per_step_limits = draw(st.booleans())
    custom_order = draw(st.booleans())
    scatter = draw(st.booleans())
    feasible = draw(st.floats(0.0, 1.0)) < 0.8
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    demand = rng.integers(0, 7, (n_steps, n_states)) * (rng.random((n_steps, n_states)) < 0.8)
    demand = demand.astype(float)
    tiny = rng.random((n_steps, n_states)) < 0.05
    demand[tiny] = rng.choice([1e-10, 5e-9, 5e-7, 0.25, 2.5e-6], tiny.sum())

    n_blocks = int(rng.integers(1, n_steps + 1)) if blocks else n_steps
    pref_rows = n_blocks * n_states if per_step_prefs else n_states
    prefs = np.stack([rng.permutation(n_clusters) for _ in range(pref_rows)])
    if padding != "distinct":
        listed = rng.integers(1, n_clusters + 1, pref_rows)
        tail = np.arange(n_clusters)[None, :] >= listed[:, None]
        prefs = np.where(tail, prefs[:, :1] if padding == "repeat" else -1, prefs)
    preference_rows = None
    if per_step_prefs:
        prefs = prefs.reshape(n_blocks, n_states, n_clusters)
        if blocks:
            preference_rows = rng.integers(0, n_blocks, n_steps)

    limit_rows = n_steps if per_step_limits else 1
    limits = np.zeros((limit_rows, n_clusters))
    for t in range(limit_rows):
        step = demand[int(rng.integers(n_steps))] if limit_rows == 1 else demand[t]
        for c in range(n_clusters):
            mode = int(rng.integers(7))
            if mode == 1:
                limits[t, c] = float(step[rng.random(n_states) < 0.4].sum())
            elif mode == 2:
                limits[t, c] = float(rng.integers(0, 12)) * float(step.max(initial=1.0))
            elif mode == 3:
                limits[t, c] = -float(rng.integers(0, 3))
            elif mode == 4:
                limits[t, c] = -0.0
            elif mode == 5 and rng.random() < 0.3:
                limits[t, c] = np.inf
        if feasible:
            totals = demand.sum(axis=1).max() if limit_rows == 1 else step.sum()
            need = totals - limits[t][limits[t] > 0].sum()
            if need > 0:
                limits[t, int(rng.integers(n_clusters))] = need + float(rng.integers(0, 3))
    headroom = np.empty((n_steps, n_clusters))
    headroom[...] = limits

    if custom_order:
        order = np.stack([rng.permutation(n_states) for _ in range(n_steps)])
    else:
        order = (-demand).argsort(axis=1)
    if scatter:
        n_out = n_steps + int(rng.integers(0, 4))
        out_rows = rng.permutation(n_out)[:n_steps]
    else:
        n_out, out_rows = n_steps, None
    return demand, prefs, preference_rows, headroom, order, n_out, out_rows


def _run(walk, demand, prefs, preference_rows, headroom, order, n_out, out_rows):
    # NaN-filled: the walk zero-fills each row it writes, and leaves the
    # rows of a scatter that no step names as they were.
    out = np.full((n_out, demand.shape[1], headroom.shape[1]), np.nan)
    try:
        walk(
            demand,
            prefs,
            headroom.copy(),
            order,
            out,
            out_rows,
            preference_rows=preference_rows,
            where=" at step {}",
        )
    except InfeasibleAllocationError as exc:
        return None, str(exc)
    return out, None


@given(case=walk_cases())
@settings(max_examples=2000, deadline=None)
def test_kernel_matches_python_oracle(case):
    kernel, kernel_error = _run(routing_base._walk, *case)
    oracle, oracle_error = _run(walk_oracle.walk, *case)
    assert kernel_error == oracle_error
    if oracle is not None:
        assert kernel.tobytes() == oracle.tobytes()


def test_oracle_stands_in_for_the_kernel(monkeypatch):
    """Swapping the oracle into ``routing_base._walk`` reroutes the
    public fills: a spy sees every call."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return walk_oracle.walk(*args, **kwargs)

    monkeypatch.setattr(routing_base, "_walk", spy)
    demand = np.array([[3.0, 4.0]])
    greedy_fill(demand[0], [[0], [1]], np.array([2.0, 10.0]))
    greedy_fill_batch(demand, np.array([[0, 1], [1, 0]]), np.array([2.0, 10.0]))
    assert calls == [(1, 2), (1, 2)]


def test_walk_reports_step_state_and_amount():
    """An unplaceable state raises naming its step and state index."""
    demand = np.array([[1.0, 1.0], [1.0, 3.0]])
    headroom = np.array([[5.0, 5.0], [1.0, 1.0]])
    out = np.zeros((2, 2, 2))
    order = np.array([[0, 1], [1, 0]])
    message = "could not place 1.0 hits/s for state index 1 at step 1"
    with pytest.raises(InfeasibleAllocationError, match=message):
        routing_base._walk(
            demand, np.array([[0, 1], [1, 0]]), headroom, order, out, None, where=" at step {}"
        )


@pytest.mark.parametrize(
    "field, value",
    (
        ("order", [[0, 2]]),
        ("prefs", [[5, 0], [1, 0]]),
        ("out_rows", [3]),
        ("preference_rows", [1]),
    ),
)
def test_out_of_range_indices_are_refused(field, value):
    args = {
        "demand": np.array([[1.0, 1.0]]),
        "prefs": np.array([[[0, 1], [1, 0]]]),
        "headroom": np.array([[5.0, 5.0]]),
        "order": np.array([[0, 1]]),
        "out": np.zeros((1, 2, 2)),
        "out_rows": None,
        "preference_rows": None,
    }
    args[field] = np.array(value)
    with pytest.raises(ConfigurationError, match="out of range"):
        routing_base._walk(**args, where="")


def test_greedy_fill_batch_refuses_a_non_contiguous_out():
    out = np.zeros((2, 2, 4))[:, :, ::2]
    with pytest.raises(ConfigurationError, match="C-contiguous"):
        greedy_fill_batch(np.ones((1, 2)), np.array([[0, 1], [1, 0]]), np.full(2, 5.0), out=out)
