"""Scenario registry: *what runs*, separated from *how it executes*.

A :class:`Scenario` freezes everything that defines one simulation —
market data set, traffic trace, routing policy, engine options — into
a hashable spec. The :mod:`registry <repro.scenarios.registry>` names
the runs the paper and the examples care about, and the
:mod:`runner <repro.scenarios.runner>` materialises specs into
memoised :class:`~repro.sim.results.SimulationResult` objects through
the batched engine.

Typical use::

    from repro import scenarios

    result = scenarios.run(scenarios.get("paper-default"))
    sweep = [
        scenarios.run(
            scenarios.get("price-optimizer-sweep").with_router(
                distance_threshold_km=km
            )
        )
        for km in (0.0, 500.0, 1500.0)
    ]

Deriving is cheap (frozen dataclass copies); running is memoised on
the full spec, so repeated sweeps across experiment drivers never
re-simulate.
"""

from repro.scenarios.registry import REGISTRY, get, names, register
from repro.scenarios.runner import (
    active_provider,
    baseline_result,
    baseline_scenario,
    build_router,
    clear_caches,
    dataset,
    open_rolling_session,
    open_session,
    physical,
    problem,
    provider_override,
    run,
    run_many,
    trace,
)
from repro.scenarios.spec import MarketSpec, ProviderSpec, RouterSpec, Scenario, TraceSpec

__all__ = [
    "REGISTRY",
    "get",
    "names",
    "register",
    "MarketSpec",
    "ProviderSpec",
    "RouterSpec",
    "Scenario",
    "TraceSpec",
    "active_provider",
    "baseline_result",
    "baseline_scenario",
    "build_router",
    "clear_caches",
    "dataset",
    "open_rolling_session",
    "open_session",
    "physical",
    "problem",
    "provider_override",
    "run",
    "run_many",
    "trace",
]
