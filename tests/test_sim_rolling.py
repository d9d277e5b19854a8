"""Differential suite: ``RollingSession`` vs per-window offline ``simulate``.

The rolling contract extends the session contract window by window:
feeding demand through a chain of billing-window sessions — in random
micro-batch sizes that straddle window boundaries — must bank, for
every completed window, a :class:`SimulationResult` that is
**bit-identical** to an independent offline :func:`simulate` run over
a trace carrying exactly that window's rows. The randomized cases
cycle router kinds, step sizes, reaction delays, and 95/5 caps (fresh
accounting per window, like real billing).
"""

from __future__ import annotations

from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.routing.akamai import BaselineProximityRouter
from repro.routing.joint import JointOptimizationRouter
from repro.routing.price import PriceConsciousRouter
from repro.sim.engine import SimulationOptions, simulate
from repro.sim.rolling import RollingSession
from repro.sim.session import RoutingSession, SessionExhaustedError
from repro.traffic.percentile import percentile_95
from repro.traffic.trace import TrafficTrace
from repro.traffic.synthetic import TraceConfig, make_trace

N_SCENARIOS = 12

ROUTER_KINDS = ("baseline", "price", "joint")

_START = datetime(2008, 11, 3)


def _build_router(kind: str, problem, rng: np.random.Generator):
    if kind == "baseline":
        return BaselineProximityRouter(problem, balance_slack=float(rng.uniform(1.0, 2.0)))
    if kind == "price":
        return PriceConsciousRouter(
            problem,
            distance_threshold_km=float(rng.choice([0.0, 1500.0])),
            price_threshold=float(rng.choice([0.0, 10.0])),
        )
    return JointOptimizationRouter(
        problem,
        distance_penalty_per_1000km=float(rng.uniform(0.0, 30.0)),
        congestion_penalty=float(rng.uniform(0.0, 80.0)),
    )


def _window_plan(rng: np.random.Generator, n_windows: int) -> list[int]:
    return [int(rng.integers(8, 33)) for _ in range(n_windows)]


def _make_roller(dataset, problem, router, options, trace, lengths, **kwargs):
    """A roller whose provider slices ``trace``'s grid into windows."""
    origins = np.concatenate([[0], np.cumsum(lengths)])

    def provider(index: int) -> RoutingSession | None:
        if index >= len(lengths):
            return None
        return RoutingSession(
            dataset,
            problem,
            router,
            options,
            start=trace.start + timedelta(seconds=int(origins[index]) * trace.step_seconds),
            step_seconds=trace.step_seconds,
            n_steps=lengths[index],
        )

    return RollingSession(provider, total_steps=int(origins[-1]), **kwargs)


def _feed_in_random_chunks(roller, demand, rng: np.random.Generator) -> None:
    t = 0
    while t < len(demand):
        k = min(int(rng.integers(1, 17)), len(demand) - t)
        if k == 1 and rng.random() < 0.5:
            roller.step(demand[t])
        else:
            roller.feed(demand[t : t + k])
        t += k


def _offline_window(trace, origin: int, length: int) -> TrafficTrace:
    return TrafficTrace(
        start=trace.start + timedelta(seconds=origin * trace.step_seconds),
        step_seconds=trace.step_seconds,
        state_codes=trace.state_codes,
        demand=trace.demand[origin : origin + length],
    )


def _assert_identical(rolled, offline):
    assert rolled.start == offline.start
    assert rolled.step_seconds == offline.step_seconds
    assert np.array_equal(rolled.loads, offline.loads)
    assert np.array_equal(rolled.paid_prices, offline.paid_prices)
    assert np.array_equal(rolled.capacities, offline.capacities)
    assert np.array_equal(
        rolled.distance_profile.histogram, offline.distance_profile.histogram
    )


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_rolling_windows_are_bit_identical_to_independent_offline_runs(
    index, small_dataset, problem
):
    rng = np.random.default_rng(np.random.SeedSequence([20260809, index]))
    kind = ROUTER_KINDS[index % len(ROUTER_KINDS)]
    lengths = _window_plan(rng, int(rng.integers(2, 6)))
    trace = make_trace(
        TraceConfig(
            start=_START + timedelta(hours=int(rng.integers(0, 200))),
            n_steps=sum(lengths),
            step_seconds=300 if index % 2 == 0 else 3600,
            seed=int(rng.integers(0, 2**31)),
        )
    )
    router = _build_router(kind, problem, rng)

    caps = None
    if index % 3 == 0:
        baseline = simulate(trace, small_dataset, problem, BaselineProximityRouter(problem))
        caps = percentile_95(baseline.loads) * float(rng.uniform(0.85, 1.1))
    options = SimulationOptions(
        reaction_delay_hours=int(rng.integers(0, 3)),
        capacity_margin=float(rng.choice([0.95, 1.0])),
        bandwidth_caps=caps,
    )

    roller = _make_roller(small_dataset, problem, router, options, trace, lengths)
    assert roller.n_steps == sum(lengths)
    _feed_in_random_chunks(roller, trace.demand, rng)

    assert roller.exhausted
    assert roller.steps_remaining == 0
    assert roller.windows_completed == len(lengths)

    origin = 0
    for length, rolled in zip(lengths, roller.results()):
        offline = simulate(
            _offline_window(trace, origin, length),
            small_dataset,
            problem,
            router,
            options,
        )
        _assert_identical(rolled, offline)
        origin += length

    # Global introspection stitches the windows back together.
    assert np.array_equal(
        np.stack([roller.paid_prices(t) for t in range(sum(lengths))]),
        np.concatenate([r.paid_prices for r in roller.results()]),
    )


def test_rolling_feed_allocations_concatenate_across_boundaries(small_dataset, problem):
    """One feed spanning three windows returns all its allocations."""
    lengths = [10, 10, 10]
    trace = make_trace(TraceConfig(start=_START, n_steps=30, seed=11))
    router = PriceConsciousRouter(problem, distance_threshold_km=1500.0)
    roller = _make_roller(
        small_dataset, problem, router, SimulationOptions(), trace, lengths
    )
    allocations = roller.feed(trace.demand[:25])
    assert allocations.shape == (25, problem.n_states, problem.n_clusters)
    loads = np.concatenate([r.loads for r in roller.results()])
    assert np.array_equal(allocations.sum(axis=1)[:20], loads)
    assert roller.window_index == 2
    assert list(roller.windows()) == [(0, 10), (10, 10), (20, 10)]


def test_rolling_from_sessions_and_open_ended_provider(small_dataset, problem):
    trace = make_trace(TraceConfig(start=_START, n_steps=24, seed=2))
    router = BaselineProximityRouter(problem)

    def window(origin: int, length: int) -> RoutingSession:
        return RoutingSession(
            small_dataset,
            problem,
            router,
            start=trace.start + timedelta(seconds=origin * trace.step_seconds),
            step_seconds=trace.step_seconds,
            n_steps=length,
        )

    roller = RollingSession.from_sessions([window(0, 12), window(12, 12)])
    assert roller.n_steps == 24
    roller.feed(trace.demand)
    assert roller.exhausted
    with pytest.raises(SessionExhaustedError):
        roller.step(trace.demand[0])

    # Open-ended: the horizon is unknown until the provider runs dry,
    # and a feed that overruns it consumes nothing (atomicity).
    def provider(index: int) -> RoutingSession | None:
        return window(index * 8, 8) if index < 2 else None

    open_roller = RollingSession(provider)
    assert open_roller.n_steps is None
    assert open_roller.steps_remaining is None
    assert not open_roller.exhausted
    open_roller.feed(trace.demand[:10])
    with pytest.raises(SessionExhaustedError):
        open_roller.feed(trace.demand[10:24])
    assert open_roller.steps_fed == 10
    assert open_roller.steps_remaining == 6  # dry provider: now exact
    open_roller.feed(trace.demand[10:16])
    assert open_roller.exhausted


def test_rolling_validates_the_window_chain(small_dataset, problem):
    trace = make_trace(TraceConfig(start=_START, n_steps=16, seed=3))
    router = BaselineProximityRouter(problem)

    def window(start: datetime, step_seconds: int = trace.step_seconds) -> RoutingSession:
        return RoutingSession(
            small_dataset,
            problem,
            router,
            start=start,
            step_seconds=step_seconds,
            n_steps=8,
        )

    def gapped(index: int) -> RoutingSession | None:
        # Second window starts an hour late.
        starts = [trace.start, trace.start + timedelta(seconds=8 * trace.step_seconds + 3600)]
        return window(starts[index]) if index < 2 else None

    roller = RollingSession(gapped)
    with pytest.raises(ConfigurationError, match="not contiguous"):
        roller.feed(trace.demand[:10])
    assert roller.steps_fed == 0  # the failed feed consumed nothing

    def restepped(index: int) -> RoutingSession | None:
        if index == 0:
            return window(trace.start)
        if index == 1:
            return window(
                trace.start + timedelta(seconds=8 * trace.step_seconds), step_seconds=600
            )
        return None

    with pytest.raises(ConfigurationError, match="step size"):
        RollingSession(restepped).feed(trace.demand[:10])

    prefed = window(trace.start)
    prefed.feed(trace.demand[:2])
    with pytest.raises(ConfigurationError, match="already fed"):
        RollingSession(lambda index: prefed if index == 0 else None)

    with pytest.raises(ConfigurationError, match="no first window"):
        RollingSession(lambda index: None)


def test_rolling_retain_windows_bounds_memory(small_dataset, problem):
    lengths = [6, 6, 6, 6]
    trace = make_trace(TraceConfig(start=_START, n_steps=24, seed=4))
    router = BaselineProximityRouter(problem)
    roller = _make_roller(
        small_dataset,
        problem,
        router,
        SimulationOptions(),
        trace,
        lengths,
        retain_windows=1,
    )
    roller.feed(trace.demand)
    # Results for every window survive eviction...
    assert roller.windows_completed == 4
    # ...but only the last retained window still answers lookups.
    assert roller.paid_prices(20).shape == (problem.n_clusters,)
    with pytest.raises(ConfigurationError, match="evicted"):
        roller.paid_prices(3)
    with pytest.raises(ConfigurationError, match="outside the materialised"):
        roller.paid_prices(24)
    assert roller.clock(24) == trace.start + timedelta(seconds=24 * trace.step_seconds)


def test_rolling_resume_from_banked_results_is_bit_identical(small_dataset, problem):
    """Interrupt at any point, resume at the last banked boundary:
    every window of the resumed chain equals the uninterrupted run's."""
    lengths = [8, 8, 8]
    trace = make_trace(TraceConfig(start=_START, n_steps=24, seed=21))
    router = JointOptimizationRouter(problem, distance_penalty_per_1000km=12.0)
    options = SimulationOptions()

    def roller(**kwargs):
        return _make_roller(
            small_dataset, problem, router, options, trace, lengths, **kwargs
        )

    full = roller()
    full.feed(trace.demand)

    # Cuts at a boundary, mid-window, and pre-first-boundary (nothing banked).
    for cut in (5, 8, 11, 16, 23):
        part = roller()
        part.feed(trace.demand[:cut])
        banked = part.results()
        boundary = 8 * len(banked)
        assert part.checkpoint_state() == {
            "windows_completed": len(banked),
            "steps_banked": boundary,
        }

        resumed = roller(resume_results=banked)
        assert resumed.steps_fed == boundary
        assert resumed.windows_completed == len(banked)
        # Steps past the boundary (lost with the interrupt) are re-fed
        # live; determinism makes them — and every later window —
        # bitwise equal to the uninterrupted run.
        resumed.feed(trace.demand[boundary:])
        assert resumed.exhausted
        for rolled, control in zip(resumed.results(), full.results()):
            _assert_identical(rolled, control)
        if boundary:
            # Banked windows are results, not materialised sessions:
            # per-step introspection starts at the resume boundary.
            assert np.array_equal(
                resumed.paid_prices(boundary), full.paid_prices(boundary)
            )
            with pytest.raises(ConfigurationError, match="outside the materialised"):
                resumed.paid_prices(boundary - 1)

    # A checkpoint covering the whole horizon leaves nothing to serve.
    with pytest.raises(ConfigurationError):
        roller(resume_results=full.results())


def test_scenario_rolling_session_matches_windowed_offline_replay():
    """``open_rolling_session`` chains scenario-grid windows past the trace."""
    from repro import scenarios

    scenario = scenarios.get("serve-smoke")
    grid = scenarios.trace(scenario.trace, scenario.market)
    window_steps = 40
    roller = scenarios.open_rolling_session(
        scenario, window_steps=window_steps, max_windows=3
    )
    assert roller.n_steps == 3 * window_steps
    assert roller.state_codes == grid.state_codes

    rows = grid.demand[: 3 * window_steps]
    rng = np.random.default_rng(7)
    _feed_in_random_chunks(roller, rows, rng)
    assert roller.exhausted

    data = scenarios.dataset(scenario.market, scenario.provider)
    prob = scenarios.problem()
    router = scenarios.build_router(scenario)
    for w, rolled in enumerate(roller.results()):
        offline = simulate(
            TrafficTrace(
                start=grid.start + timedelta(seconds=w * window_steps * grid.step_seconds),
                step_seconds=grid.step_seconds,
                state_codes=grid.state_codes,
                demand=rows[w * window_steps : (w + 1) * window_steps],
            ),
            data,
            prob,
            router,
        )
        _assert_identical(rolled, offline)

    with pytest.raises(ConfigurationError, match="max_windows"):
        scenarios.open_rolling_session(scenario, window_steps=40, max_windows=10**9)
    with pytest.raises(ConfigurationError, match="window_steps"):
        scenarios.open_rolling_session(scenario, window_steps=0)
