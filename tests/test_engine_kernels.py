"""Chunked stepping and the profiling harness.

Every entry point of the stepping core must agree *bitwise* on runs
that span several reduction chunks, across router kinds and cap modes.
"""

from __future__ import annotations

import pytest

from repro.routing.akamai import BaselineProximityRouter
from repro.routing.joint import JointOptimizationRouter
from repro.routing.price import PriceConsciousRouter
from repro.routing.static import StaticSingleHubRouter
from repro.sim import engine as engine_mod
from repro.sim import profiling
from repro.sim.engine import SimulationOptions, simulate, simulate_many, simulate_per_step
from repro.sim.session import RoutingSession

from router_oracle import oracle

# ---------------------------------------------------------------------------
# Bitwise identity across chunk boundaries

ROUTERS = ["baseline", "price", "joint", "static"]


def _build_router(kind: str, problem):
    if kind == "baseline":
        return BaselineProximityRouter(problem)
    if kind == "price":
        return PriceConsciousRouter(problem, distance_threshold_km=1500.0)
    if kind == "joint":
        return JointOptimizationRouter(problem)
    return StaticSingleHubRouter(problem, 0)


def _snapshot(result):
    return (
        result.loads.tobytes(),
        result.paid_prices.tobytes(),
        result.distance_profile.histogram.tobytes(),
    )


@pytest.fixture(scope="module")
def references(short_trace, small_dataset, problem):
    """Default-engine snapshots for every (router, caps) combination."""
    out = {}
    for kind in ROUTERS:
        router = _build_router(kind, problem)
        plain = simulate(short_trace, small_dataset, problem, router)
        caps = plain.percentiles_95() * 0.9
        capped = simulate(
            short_trace,
            small_dataset,
            problem,
            router,
            SimulationOptions(bandwidth_caps=caps),
        )
        out[kind] = {"caps": caps, None: _snapshot(plain), "95_5": _snapshot(capped)}
    return out


@pytest.mark.parametrize("mode", [None, "95_5"])
@pytest.mark.parametrize("kind", ROUTERS)
def test_multi_chunk_entry_points_bitwise_identical(
    monkeypatch, short_trace, small_dataset, problem, references, kind, mode
):
    # Shrink chunks so the two-day trace spans several of them; every
    # entry point then shares the same (small) chunking, because chunk
    # size legitimately regroups the float reductions. Offline, stacked,
    # per-step, and a session whose feeds straddle chunk boundaries must
    # all fold identically.
    monkeypatch.setattr(engine_mod, "BATCH_CHUNK_MIB", 0.25)
    assert engine_mod.batch_chunk_steps(problem.n_states, problem.n_clusters) < 100
    router = _build_router(kind, problem)
    options = SimulationOptions(bandwidth_caps=references[kind]["caps"]) if mode else None
    batched = simulate(short_trace, small_dataset, problem, router, options)
    per_step = simulate_per_step(short_trace, small_dataset, problem, oracle(router), options)
    stacked = simulate_many([short_trace] * 2, small_dataset, problem, router, options)
    session = RoutingSession(
        small_dataset,
        problem,
        router,
        options,
        start=short_trace.start,
        step_seconds=short_trace.step_seconds,
        n_steps=short_trace.n_steps,
    )
    for t in range(0, short_trace.n_steps, 7):
        session.feed(short_trace.demand[t : t + 7])
    for result in (per_step, *stacked, session.result()):
        assert _snapshot(result) == _snapshot(batched)
    # Chunking regroups only the histogram's float sums, never a load.
    assert _snapshot(batched)[0] == references[kind][mode][0]


# ---------------------------------------------------------------------------
# Profiling harness


def test_profiling_disabled_by_default():
    assert not profiling.enabled()
    with profiling.phase("routing"):
        pass  # must be a no-op, not an error
    assert not profiling.enabled()


def test_profiled_collects_engine_phases(short_trace, small_dataset, problem):
    router = _build_router("joint", problem)
    with profiling.profiled() as phases:
        simulate(short_trace, small_dataset, problem, router)
    assert profiling.enabled() is False
    for name in ("precompute", "routing", "reduce", "finalize"):
        assert name in phases, name
        assert phases[name] >= 0.0
    assert set(phases) <= set(profiling.PHASES)


def test_profiled_blocks_nest():
    with profiling.profiled() as outer:
        with profiling.profiled() as inner:
            with profiling.phase("routing"):
                pass
        with profiling.phase("reduce"):
            pass
    assert "routing" in outer and "routing" in inner
    assert "reduce" in outer and "reduce" not in inner


def test_greedy_repair_nested_inside_routing(short_trace, small_dataset, problem):
    """When the greedy spill runs, its time is a subset of routing."""
    router = _build_router("joint", problem)
    base = simulate(short_trace, small_dataset, problem, router)
    caps = base.percentiles_95() * 0.9
    with profiling.profiled() as phases:
        simulate(
            short_trace,
            small_dataset,
            problem,
            router,
            SimulationOptions(bandwidth_caps=caps),
        )
    if "greedy_repair" in phases:
        assert phases["greedy_repair"] <= phases["routing"] + 1e-6


def test_profile_cases_structure():
    report = profiling.profile_cases(days=2)
    assert set(report) == {
        "baseline_proximity",
        "price_unconstrained",
        "joint_soft_objective",
        "joint_followed_95_5",
    }
    for phases in report.values():
        assert phases["total"] > 0.0
        assert "routing" in phases
