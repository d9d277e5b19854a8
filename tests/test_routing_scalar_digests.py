"""Pinned bytes of the scalar ``allocate`` path on real serving rows.

The batch suites pin ``allocate_batch`` to ``allocate``; this file pins
``allocate`` itself. It routes the first 288 five-minute rows the
``route`` benchmark sends (``serve-smoke``'s traffic model, trace seed
3001) under the scenario's lagged prices and at capacity limits, one
scalar call per row, and compares the sha256 of the stacked allocation
tensor with digests recorded before the scalar spill walk moved from
numpy scalars to Python floats. Most of these rows spill, so the
digests cover the greedy walk and its fallback pass, not only the
one-cluster fast path.
"""

import hashlib
from datetime import datetime
from functools import lru_cache

import numpy as np
import pytest

from repro import scenarios
from repro.routing import BaselineProximityRouter, JointOptimizationRouter
from repro.scenarios.spec import TraceSpec
from repro.sim import SimulationOptions

N_ROWS = 288

DIGESTS = {
    "price": "7d7f41b4bfa12b4db5c88583fa8f880d285e6f77811ac2c4cb7603bc1b452d6a",
    "baseline": "c2efcabaf0d71f69414f38d75516e51a9570974173437d8b927ac2d9091a9b0a",
    "joint": "14207871a373e68c4be19c08a2c9507aef8fc75910ab5905ccc5a0ba9fe6d2f8",
}


@lru_cache(maxsize=1)
def _inputs():
    scenario = scenarios.get("serve-smoke")
    spec = TraceSpec(kind="five-minute", start=datetime(2008, 12, 1), n_steps=N_ROWS, seed=3001)
    demand = scenarios.trace(spec, scenario.market).demand[:N_ROWS]
    session = scenarios.open_session(scenario)
    prices = np.stack([session.seen_prices(t) for t in range(N_ROWS)])
    problem = scenarios.problem()
    limits = problem.deployment.capacities * SimulationOptions().capacity_margin
    return scenario, problem, demand, prices, limits


def _router(kind: str):
    scenario, problem, *_ = _inputs()
    if kind == "price":
        return scenarios.build_router(scenario)
    if kind == "baseline":
        return BaselineProximityRouter(problem)
    return JointOptimizationRouter(problem)


@pytest.mark.parametrize("kind", sorted(DIGESTS))
def test_scalar_allocate_bytes_are_pinned(kind):
    *_, demand, prices, limits = _inputs()
    router = _router(kind)
    allocation = np.stack([router.allocate(demand[t], prices[t], limits) for t in range(N_ROWS)])
    # Enough rows split a state across clusters that the digest pins
    # the spill walk, not just the fast path.
    split = np.count_nonzero((allocation > 0).sum(axis=2) > 1, axis=1)
    assert np.count_nonzero(split) >= N_ROWS // 2
    assert hashlib.sha256(allocation.tobytes()).hexdigest() == DIGESTS[kind]
