"""Pinned bytes of synthetic traffic traces.

Every figure, sweep and serving check replays traces from
:func:`make_trace`, so a change to how demand is drawn or filtered must
not move a single bit of them. This file hashes the ``demand`` and
``non_us`` arrays of a few traces — one step, the campaign grid's
36-step window (the registry's seed and a perfbench seed), the 288-step
serving window and the 24-day paper trace — and compares them with
digests recorded before the per-state AR(1) jitter loop was replaced
by one batched filter call.
"""

import hashlib
from datetime import datetime

import pytest

from repro.traffic.synthetic import TraceConfig, make_trace, make_turn_of_year_trace

CAMPAIGN_START = datetime(2008, 12, 1)

DIGESTS = {
    (CAMPAIGN_START, 1, 1224): "e996ab93a80d8ae2746c96ac63859b1caea4aa6125e0b6f9f15e09ec9772d874",
    (CAMPAIGN_START, 36, 7): "6c6eb17477494833acdd1b52941227f3a22c85a11c963f7c4c22ffebdf928497",
    (CAMPAIGN_START, 36, 2001): "36dd8cc47b9c6e6f1404bbe4b4e1c25c29b6e1d9a76bad140661860992a9b1d7",
    (CAMPAIGN_START, 288, 3001): "54de3b08fcbc8fe2bb3208dee9878de727f5bbbf4031aac4f8da348ac228fd61",
}

TURN_OF_YEAR_DIGEST = "8cb4dce5ba5eb13e529483d7378b8ad67976bea67553469b3ff80411753578b9"


def _digest(trace) -> str:
    h = hashlib.sha256()
    h.update(trace.demand.tobytes())
    h.update(trace.non_us.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("start,n_steps,seed", sorted(DIGESTS))
def test_make_trace_bytes_are_pinned(start, n_steps, seed):
    trace = make_trace(TraceConfig(start=start, n_steps=n_steps, seed=seed))
    assert trace.demand.shape == (n_steps, 49)
    assert _digest(trace) == DIGESTS[start, n_steps, seed]


def test_turn_of_year_trace_bytes_are_pinned():
    assert _digest(make_turn_of_year_trace(1224)) == TURN_OF_YEAR_DIGEST
