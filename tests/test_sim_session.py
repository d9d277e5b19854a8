"""Differential suite: incremental ``RoutingSession`` vs offline ``simulate``.

The session's contract is that feeding a demand sequence step by step
(in arbitrary micro-batch sizes) is **bit-identical** to the offline
batched pipeline replaying a trace with the same rows — same loads,
same paid prices, same distance histogram, same 95/5 accounting. The
randomized cases cycle all five router kinds (baseline proximity,
price-conscious, static, static-cheapest, joint) with and without
95/5 caps, including caps tight enough to force burst steps through
the per-step retry path.
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.routing.akamai import BaselineProximityRouter
from repro.routing.joint import JointOptimizationRouter
from repro.routing.price import PriceConsciousRouter
from repro.routing.static import StaticSingleHubRouter, cheapest_cluster_index
from repro.sim.engine import SimulationOptions, simulate
from repro.sim.session import RoutingSession, SessionExhaustedError
from repro.traffic.percentile import percentile_95
from repro.traffic.synthetic import TraceConfig, make_trace

N_SCENARIOS = 30

ROUTER_KINDS = ("baseline", "price", "static", "static-cheapest", "joint")

_WINDOW_START = datetime(2008, 11, 1)
_WINDOW_DAYS = 80


def _generate_case(rng: np.random.Generator, index: int) -> dict:
    router_kind = ROUTER_KINDS[index % len(ROUTER_KINDS)]
    step_seconds = 300 if index % 2 == 0 else 3600
    return {
        "router_kind": router_kind,
        "trace": TraceConfig(
            start=_WINDOW_START + timedelta(hours=int(rng.integers(0, _WINDOW_DAYS * 24))),
            n_steps=int(rng.integers(24, 121)),
            step_seconds=step_seconds,
            seed=int(rng.integers(0, 2**31)),
        ),
        "reaction_delay_hours": int(rng.integers(0, 4)),
        "capacity_margin": float(rng.choice([0.9, 0.97, 1.0])),
        "relax_capacity": router_kind.startswith("static") and rng.random() < 0.3,
        "with_caps": index % 3 == 0,
        "caps_scale": float(rng.uniform(0.85, 1.1)),
        "relocate": router_kind == "static" and rng.random() < 0.5,
    }


def _build_router(case: dict, problem, dataset, rng: np.random.Generator):
    kind = case["router_kind"]
    if kind == "baseline":
        return BaselineProximityRouter(problem, balance_slack=float(rng.uniform(1.0, 2.0)))
    if kind == "price":
        return PriceConsciousRouter(
            problem,
            distance_threshold_km=float(rng.choice([0.0, 800.0, 1500.0, 5000.0])),
            price_threshold=float(rng.choice([0.0, 5.0, 15.0])),
        )
    if kind == "static":
        return StaticSingleHubRouter(problem, int(rng.integers(0, problem.n_clusters)))
    if kind == "static-cheapest":
        hub_cols = [dataset.hub_column(code) for code in problem.deployment.hub_codes]
        mean_prices = dataset.price_matrix[:, hub_cols].mean(axis=0)
        return StaticSingleHubRouter(problem, cheapest_cluster_index(problem, mean_prices))
    return JointOptimizationRouter(
        problem,
        distance_penalty_per_1000km=float(rng.uniform(0.0, 30.0)),
        congestion_penalty=float(rng.uniform(0.0, 80.0)),
        distance_threshold_km=1500.0 if rng.random() < 0.5 else None,
    )


def _feed_in_random_chunks(session, demand, rng: np.random.Generator) -> None:
    """Drive the horizon through a mix of step() and random-size feed()."""
    t = 0
    while t < len(demand):
        k = min(int(rng.integers(1, 17)), len(demand) - t)
        if k == 1 and rng.random() < 0.5:
            session.step(demand[t])
        else:
            session.feed(demand[t : t + k])
        t += k


def _assert_identical(session_result, offline):
    assert session_result.start == offline.start
    assert session_result.step_seconds == offline.step_seconds
    assert session_result.cluster_labels == offline.cluster_labels
    assert np.array_equal(session_result.loads, offline.loads)
    assert np.array_equal(session_result.paid_prices, offline.paid_prices)
    assert np.array_equal(session_result.capacities, offline.capacities)
    assert np.array_equal(session_result.server_counts, offline.server_counts)
    assert np.array_equal(
        session_result.distance_profile.histogram, offline.distance_profile.histogram
    )


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_session_feed_is_bit_identical_to_offline_simulate(index, small_dataset, problem):
    rng = np.random.default_rng(np.random.SeedSequence([20260808, index]))
    case = _generate_case(rng, index)
    trace = make_trace(case["trace"])
    router = _build_router(case, problem, small_dataset, rng)

    caps = None
    if case["with_caps"]:
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

    offline = simulate(
        trace, small_dataset, problem, router, options, server_counts=server_counts
    )

    session = RoutingSession(
        small_dataset,
        problem,
        router,
        options,
        start=trace.start,
        step_seconds=trace.step_seconds,
        n_steps=trace.n_steps,
        server_counts=server_counts,
    )
    _feed_in_random_chunks(session, trace.demand, rng)
    _assert_identical(session.result(), offline)

    if caps is not None:
        # The rolling tracker accounted exactly the offline run's bursts.
        assert session.tracker is not None
        offline_bursts = (offline.loads > caps[None, :] * (1.0 + 1e-9)).sum(axis=0)
        assert np.array_equal(session.tracker.bursts_used, offline_bursts)


def test_session_covers_all_router_kinds():
    kinds = {ROUTER_KINDS[i % len(ROUTER_KINDS)] for i in range(N_SCENARIOS)}
    assert kinds == set(ROUTER_KINDS)


def test_session_allocations_match_offline_loads_per_step(small_dataset, problem):
    """Each feed's return covers exactly the steps it routed."""
    trace = make_trace(TraceConfig(start=_WINDOW_START, n_steps=30, seed=5))
    router = PriceConsciousRouter(problem, distance_threshold_km=1500.0)
    offline = simulate(trace, small_dataset, problem, router)
    session = RoutingSession(
        small_dataset,
        problem,
        router,
        start=trace.start,
        step_seconds=trace.step_seconds,
        n_steps=trace.n_steps,
    )
    t = 0
    while t < trace.n_steps:
        k = min(7, trace.n_steps - t)
        allocations = session.feed(trace.demand[t : t + k])
        assert allocations.shape == (k, problem.n_states, problem.n_clusters)
        assert np.array_equal(allocations.sum(axis=1), offline.loads[t : t + k])
        t += k


def test_session_horizon_and_validation_errors(small_dataset, problem):
    trace = make_trace(TraceConfig(start=_WINDOW_START, n_steps=12, seed=9))
    router = BaselineProximityRouter(problem)

    def fresh():
        return RoutingSession(
            small_dataset,
            problem,
            router,
            start=trace.start,
            step_seconds=trace.step_seconds,
            n_steps=trace.n_steps,
        )

    session = fresh()
    with pytest.raises(ConfigurationError, match="full horizon"):
        session.result()

    with pytest.raises(ConfigurationError, match="finite and non-negative"):
        session.feed(-trace.demand[:1])
    with pytest.raises(ConfigurationError, match="demand must be"):
        session.feed(np.ones((2, problem.n_states + 1)))
    with pytest.raises(ConfigurationError, match="at least one step"):
        session.feed(np.empty((0, problem.n_states)))

    session.feed(trace.demand[:10])
    with pytest.raises(SessionExhaustedError):
        session.feed(trace.demand[:5])
    assert session.steps_fed == 10  # the oversized feed changed nothing
    session.feed(trace.demand[10:])
    assert session.exhausted
    with pytest.raises(SessionExhaustedError):
        session.step(trace.demand[0])

    with pytest.raises(ConfigurationError, match="at least one step"):
        RoutingSession(
            small_dataset, problem, router,
            start=trace.start, step_seconds=trace.step_seconds, n_steps=0,
        )


def test_session_introspection_bounds_are_validated(small_dataset, problem):
    """clock/seen_prices/paid_prices reject out-of-horizon steps cleanly."""
    trace = make_trace(TraceConfig(start=_WINDOW_START, n_steps=6, seed=13))
    session = RoutingSession(
        small_dataset,
        problem,
        BaselineProximityRouter(problem),
        start=trace.start,
        step_seconds=trace.step_seconds,
        n_steps=trace.n_steps,
    )
    # clock() admits the end boundary (start of the next window)...
    assert session.clock(6) == trace.start + timedelta(seconds=6 * trace.step_seconds)
    # ...the price views do not: there is no step 6 to price.
    for call in (session.clock, session.seen_prices, session.paid_prices):
        with pytest.raises(ConfigurationError, match="outside the session horizon"):
            call(-1)
    with pytest.raises(ConfigurationError, match="outside the session horizon"):
        session.clock(7)
    for call in (session.seen_prices, session.paid_prices):
        with pytest.raises(ConfigurationError, match="outside the session horizon"):
            call(6)


def test_session_scalar_step_is_bit_identical_to_batch_feed(small_dataset, problem):
    """The one-step fast path must match the batched path bit for bit."""
    trace = make_trace(TraceConfig(start=_WINDOW_START, n_steps=20, seed=21))
    router = JointOptimizationRouter(problem, congestion_penalty=40.0)
    baseline = simulate(trace, small_dataset, problem, BaselineProximityRouter(problem))
    options = SimulationOptions(bandwidth_caps=percentile_95(baseline.loads) * 0.9)

    def fresh():
        return RoutingSession(
            small_dataset,
            problem,
            router,
            options,
            start=trace.start,
            step_seconds=trace.step_seconds,
            n_steps=trace.n_steps,
        )

    stepped, batched = fresh(), fresh()
    scalar = np.stack([stepped.step(row) for row in trace.demand])
    assert np.array_equal(scalar, batched.feed(trace.demand))
    _assert_identical(stepped.result(), batched.result())


def test_session_clock_and_price_introspection(small_dataset, problem):
    trace = make_trace(TraceConfig(start=_WINDOW_START, n_steps=24, seed=3))
    router = BaselineProximityRouter(problem)
    session = RoutingSession(
        small_dataset,
        problem,
        router,
        SimulationOptions(reaction_delay_hours=2),
        start=trace.start,
        step_seconds=trace.step_seconds,
        n_steps=trace.n_steps,
    )
    assert session.clock(0) == trace.start
    assert session.clock(12) == trace.start + timedelta(seconds=12 * trace.step_seconds)
    assert session.state_codes == problem.state_codes
    assert session.cluster_labels == problem.deployment.labels

    offline = simulate(
        trace, small_dataset, problem, router, SimulationOptions(reaction_delay_hours=2)
    )
    session.feed(trace.demand)
    assert np.array_equal(
        np.stack([session.paid_prices(t) for t in range(trace.n_steps)]),
        offline.paid_prices,
    )


def test_session_refuses_nan_prices(small_dataset, problem):
    """A NaN among the prices the router would see is refused up front,
    naming the cluster and the step; inf prices stay legal."""
    trace = make_trace(TraceConfig(start=_WINDOW_START, n_steps=12, seed=9))
    router = PriceConsciousRouter(problem, 800.0)
    column = small_dataset.hub_column(problem.deployment.hub_codes[0])

    def session_over(value):
        prices = small_dataset.price_matrix.copy()
        prices[:, column] = value
        dataset = type(small_dataset)(
            small_dataset.config, small_dataset.calendar, small_dataset.hubs, prices, prices
        )
        return RoutingSession(
            dataset,
            problem,
            router,
            start=trace.start,
            step_seconds=trace.step_seconds,
            n_steps=trace.n_steps,
        )

    label = problem.deployment.clusters[0].label
    with pytest.raises(ConfigurationError, match=f"NaN price for cluster {label} at step 0"):
        session_over(np.nan)
    session_over(np.inf).feed(trace.demand)
