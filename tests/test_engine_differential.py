"""Randomized differential test: ``simulate`` vs ``simulate_per_step``.

The batched pipeline's contract is *bit-identical* agreement with the
original one-``allocate``-per-step reference loop driving the per-step
oracle routers (``router_oracle.py``, the scalar programs the routers'
batch forms replaced), for every router kind, trace kind, and option combination. This test generates ~50
scenarios from one master seed — sweeping router kinds (baseline,
price, static, joint, and the signal-override path that carbon/weather
routing executes through), five-minute and hourly traces at random
windows and lengths, reaction delays, capacity margins, relaxed
capacity, 95/5 caps (including caps tight enough to force burst
steps), and relocated-fleet server counts — and asserts exact array
equality on every recorded quantity.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.routing.akamai import BaselineProximityRouter
from repro.routing.joint import JointOptimizationRouter
from repro.routing.price import PriceConsciousRouter
from repro.routing.static import StaticSingleHubRouter
from repro.sim.engine import SimulationOptions, simulate, simulate_per_step
from repro.traffic.percentile import percentile_95
from repro.traffic.synthetic import TraceConfig, make_trace

from router_oracle import oracle

N_SCENARIOS = 50

ROUTER_KINDS = ("baseline", "price", "static", "joint", "signal")
TRACE_KINDS = ("five-minute", "hourly")

#: Trace windows stay inside the small dataset's calendar (Oct 2008 +
#: 6 months) with room for the longest trace.
_WINDOW_START = datetime(2008, 11, 1)
_WINDOW_DAYS = 80


def _generate_case(rng: np.random.Generator, index: int, problem) -> dict:
    """One randomized scenario; kinds cycle so all pairs appear."""
    router_kind = ROUTER_KINDS[index % len(ROUTER_KINDS)]
    trace_kind = TRACE_KINDS[(index // len(ROUTER_KINDS)) % len(TRACE_KINDS)]
    step_seconds = 300 if trace_kind == "five-minute" else 3600
    return {
        "router_kind": router_kind,
        "trace_kind": trace_kind,
        "trace": TraceConfig(
            start=_WINDOW_START + timedelta(hours=int(rng.integers(0, _WINDOW_DAYS * 24))),
            n_steps=int(rng.integers(24, 121)),
            step_seconds=step_seconds,
            seed=int(rng.integers(0, 2**31)),
        ),
        "reaction_delay_hours": int(rng.integers(0, 4)),
        "capacity_margin": float(rng.choice([0.9, 0.97, 1.0])),
        "relax_capacity": bool(rng.random() < 0.2),
        "with_caps": index % 3 == 0,
        "caps_scale": float(rng.uniform(0.85, 1.1)),
        "router_seed": int(rng.integers(0, 2**31)),
        "relocate": router_kind == "static" and rng.random() < 0.5,
    }


def _build_router(case: dict, problem, rng: np.random.Generator):
    kind = case["router_kind"]
    if kind == "baseline":
        return BaselineProximityRouter(problem, balance_slack=float(rng.uniform(1.0, 2.0)))
    if kind in ("price", "signal"):
        return PriceConsciousRouter(
            problem,
            distance_threshold_km=float(rng.choice([0.0, 800.0, 1500.0, 5000.0])),
            price_threshold=float(rng.choice([0.0, 5.0, 15.0])),
        )
    if kind == "static":
        return StaticSingleHubRouter(problem, int(rng.integers(0, problem.n_clusters)))
    return JointOptimizationRouter(
        problem,
        distance_penalty_per_1000km=float(rng.uniform(0.0, 30.0)),
        congestion_penalty=float(rng.uniform(0.0, 80.0)),
        distance_threshold_km=1500.0 if rng.random() < 0.5 else None,
    )


def _assert_identical(batched, reference):
    assert batched.start == reference.start
    assert batched.step_seconds == reference.step_seconds
    assert batched.cluster_labels == reference.cluster_labels
    assert np.array_equal(batched.loads, reference.loads)
    assert np.array_equal(batched.paid_prices, reference.paid_prices)
    assert np.array_equal(batched.capacities, reference.capacities)
    assert np.array_equal(batched.server_counts, reference.server_counts)
    assert np.array_equal(batched.distance_profile.histogram, reference.distance_profile.histogram)


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_batched_engine_is_bit_identical_to_reference(index, small_dataset, problem):
    rng = np.random.default_rng(np.random.SeedSequence([20090729, index]))
    case = _generate_case(rng, index, problem)
    trace = make_trace(case["trace"])
    router = _build_router(case, problem, rng)

    caps = None
    if case["with_caps"]:
        # Caps from a baseline run over the same trace, scaled down far
        # enough that some steps must burst through the per-step path.
        baseline = simulate(trace, small_dataset, problem, BaselineProximityRouter(problem))
        caps = percentile_95(baseline.loads) * case["caps_scale"]

    options = SimulationOptions(
        reaction_delay_hours=case["reaction_delay_hours"],
        capacity_margin=case["capacity_margin"],
        relax_capacity=case["relax_capacity"],
        bandwidth_caps=caps,
    )

    server_counts = None
    if case["relocate"]:
        counts = np.zeros(problem.n_clusters)
        counts[router.cluster_index] = sum(c.n_servers for c in problem.deployment.clusters)
        server_counts = counts

    router_prices = None
    if case["router_kind"] == "signal":
        # The carbon/weather execution path: a per-step price override
        # the router sees in place of the lagged market prices.
        signal_rng = np.random.default_rng(case["router_seed"])
        router_prices = signal_rng.uniform(5.0, 150.0, size=(trace.n_steps, problem.n_clusters))

    kwargs = dict(options=options, server_counts=server_counts, router_prices=router_prices)
    batched = simulate(trace, small_dataset, problem, router, **kwargs)
    reference = simulate_per_step(trace, small_dataset, problem, oracle(router), **kwargs)
    _assert_identical(batched, reference)


def test_differential_covers_all_kind_pairs():
    """The cycling in _generate_case must visit every router x trace pair."""
    pairs = {
        (
            ROUTER_KINDS[i % len(ROUTER_KINDS)],
            TRACE_KINDS[(i // len(ROUTER_KINDS)) % len(TRACE_KINDS)],
        )
        for i in range(N_SCENARIOS)
    }
    assert len(pairs) == len(ROUTER_KINDS) * len(TRACE_KINDS)
