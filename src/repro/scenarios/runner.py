"""Scenario execution: specs in, memoised simulation results out.

The runner materialises each ingredient of a
:class:`~repro.scenarios.spec.Scenario` (market data set, trace,
routing problem, router) and drives the batched simulation engine.
Every stage is memoised on its frozen spec, so twenty experiment
drivers sweeping thresholds against the same market regenerate
nothing — the scenario *is* the cache key.

Finished runs live in one bounded in-process memo. :func:`run` fills
it through the content-addressed on-disk store when
:mod:`repro.artifacts` has one active: it looks a run up there first
and publishes what it computes, so figure workers and warm
re-invocations of the ``repro`` CLI load results instead of
re-simulating. :func:`run_many`, the sweep executor's batch entry,
fills the memo directly and leaves the store alone: a campaign reads
its points back only from this process's memo.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from datetime import timedelta
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import artifacts
from repro.errors import ConfigurationError
from repro.markets.calendar import HourlyCalendar
from repro.markets.generator import MarketDataset
from repro.markets.providers import SYNTHETIC, ProviderSpec, materialise_dataset
from repro.memo import BoundedMemo, memoised, nbytes
from repro.routing.akamai import BaselineProximityRouter
from repro.routing.base import Router, RoutingProblem
from repro.routing.joint import JointOptimizationRouter
from repro.routing.price import PriceConsciousRouter
from repro.routing.static import StaticSingleHubRouter, cheapest_cluster_index
from repro.scenarios.spec import MarketSpec, RouterSpec, Scenario, TraceSpec
from repro.sim.engine import SimulationOptions, simulate, simulate_many
from repro.sim.results import SimulationResult
from repro.sim.rolling import RollingSession
from repro.sim.session import RoutingSession
from repro.traffic.clusters import akamai_like_deployment
from repro.traffic.synthetic import TraceConfig, make_trace, make_turn_of_year_trace
from repro.traffic.trace import HourOfWeekWorkload, TrafficTrace
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "dataset",
    "problem",
    "trace",
    "build_router",
    "baseline_scenario",
    "baseline_result",
    "run",
    "run_many",
    "open_session",
    "open_rolling_session",
    "clear_caches",
    "provider_override",
    "active_provider",
    "physical",
]


# Process-wide provider override: `repro run --provider X` swaps the
# price source under every driver without rewriting twenty registries.
# The override is *resolved into the scenario spec* before any memo or
# artifact lookup, so cache keys always name the data that was used.
_provider_override: ProviderSpec | None = None


@contextmanager
def provider_override(spec: ProviderSpec | None) -> Iterator[None]:
    """Run a block with every default-provider scenario re-pointed at ``spec``.

    ``None`` is a no-op (callers can pass an optional override through
    unconditionally). Scenarios that *explicitly* name a non-default
    provider keep it — the override only replaces the synthetic default.
    """
    global _provider_override
    previous = _provider_override
    _provider_override = spec if spec is not None else previous
    try:
        yield
    finally:
        _provider_override = previous


def active_provider() -> ProviderSpec:
    """The provider a default-provider scenario resolves to right now."""
    return _provider_override if _provider_override is not None else SYNTHETIC


def _resolve(scenario: Scenario) -> Scenario:
    """Fold the active provider override into a scenario spec."""
    if _provider_override is not None and scenario.provider == SYNTHETIC:
        return scenario.derive(provider=_provider_override)
    return scenario


def physical(scenario: Scenario) -> Scenario:
    """The run a scenario names: override resolved, name stripped.

    Two specs that describe the same physical run map to the same
    value whatever they are called, and the same registry entry maps
    to different values under different provider overrides. Memo,
    artifact and serving-checkpoint keys all use it.
    """
    return _resolve(scenario).derive(name="", description="")


def dataset(market: MarketSpec, provider: ProviderSpec | None = None) -> MarketDataset:
    """The market data set a spec describes (memoised per spec).

    ``provider`` defaults to the active provider (the synthetic
    generator unless a :func:`provider_override` is in force).
    """
    return _dataset_cached(market, provider if provider is not None else active_provider())


# Cache sizes are sized for a full twenty-figure parallel sweep, which
# touches a handful of markets (paper seed, example seeds, ablation
# seeds) but must never evict the shared paper market mid-sweep: a
# dataset miss costs tens of seconds, so these are generous. Beneath
# the in-process memo sits the content-addressed disk cache
# (:func:`repro.markets.providers.materialise_dataset`), which shares
# materialised datasets across worker processes, shards, and reruns.
@lru_cache(maxsize=32)
def _dataset_cached(market: MarketSpec, provider: ProviderSpec) -> MarketDataset:
    return materialise_dataset(market, provider)


@lru_cache(maxsize=1)
def problem() -> RoutingProblem:
    """The shared Akamai-like nine-cluster routing problem."""
    return RoutingProblem(akamai_like_deployment())


@memoised(64 << 20, weigh=nbytes)
def trace(spec: TraceSpec, market: MarketSpec) -> TrafficTrace:
    """The traffic trace a spec describes (memoised per spec pair).

    ``market`` matters only for ``hour-of-week`` traces, whose length
    is the market calendar's; it is part of the key regardless so the
    cache never aliases traces across calendars. The memo holds up to
    64 MiB of traces: a campaign cell's 40 short replica traces stay
    warm across its work groups, year-long traces (41 MB) still evict.
    """
    if spec.kind == "turn-of-year":
        return make_turn_of_year_trace(seed=spec.seed)
    if spec.kind == "five-minute":
        return make_trace(TraceConfig(start=spec.start, n_steps=spec.n_steps, seed=spec.seed))
    # hour-of-week: the 24-day trace's averages over the whole calendar.
    # The calendar is derived from the market spec alone — the trace
    # must never materialise a price data set (provider-independent).
    workload = HourOfWeekWorkload.from_trace(make_turn_of_year_trace(seed=spec.seed))
    return workload.expand(HourlyCalendar.for_months(market.start, market.months))


def _static_cheapest_index(scenario: Scenario) -> int:
    """Oracle choice: the cluster whose hub has the lowest mean price."""
    data = dataset(scenario.market, scenario.provider)
    prob = problem()
    hub_cols = [data.hub_column(code) for code in prob.deployment.hub_codes]
    mean_prices = data.price_matrix[:, hub_cols].mean(axis=0)
    return cheapest_cluster_index(prob, mean_prices)


def build_router(scenario: Scenario) -> Router:
    """Construct the scenario's routing policy.

    Signal-driven kinds (``carbon``, ``weather``) build the price
    machinery with the intensity threshold; their substitute signal is
    supplied separately to the engine as a ``router_prices`` override
    (see :func:`_signal_rows`).
    """
    kind = scenario.router.kind
    kwargs = scenario.router.kwargs
    prob = problem()
    if kind == "baseline":
        return BaselineProximityRouter(prob, **kwargs)
    if kind in ("price", "weather"):
        return PriceConsciousRouter(prob, **kwargs)
    if kind == "joint":
        return JointOptimizationRouter(prob, **kwargs)
    if kind == "static":
        return StaticSingleHubRouter(prob, **kwargs)
    if kind == "static-cheapest":
        return StaticSingleHubRouter(prob, _static_cheapest_index(scenario))
    if kind == "carbon":
        from repro.ext.carbon import CarbonConsciousRouter

        return CarbonConsciousRouter(prob, **kwargs)
    raise ConfigurationError(f"unknown router kind {kind!r}")


def _signal_rows(scenario: Scenario) -> np.ndarray | None:
    """Per-step ``router_prices`` override for signal-driven kinds."""
    kind = scenario.router.kind
    if kind not in ("carbon", "weather"):
        return None
    from repro.ext.carbon import carbon_intensity_matrix
    from repro.ext.signal import hourly_signal_rows
    from repro.ext.weather import effective_price_matrix

    data = dataset(scenario.market, scenario.provider)
    run_trace = trace(scenario.trace, scenario.market)
    signal = (carbon_intensity_matrix(data) if kind == "carbon" else effective_price_matrix(data))
    return hourly_signal_rows(signal, data, problem().deployment, run_trace)


def baseline_result(
    market: MarketSpec,
    trace_spec: TraceSpec,
    provider: ProviderSpec | None = None,
) -> SimulationResult:
    """The price-blind baseline run over a market/trace pair.

    This is both the normalisation denominator for savings figures and
    the source of the 95/5 caps for ``follow_95_5`` scenarios. The
    baseline shares the caller's price provider so savings always
    compare like with like.
    """
    return _baseline_cached(
        market, trace_spec, provider if provider is not None else active_provider()
    )


def baseline_scenario(
    market: MarketSpec,
    trace_spec: TraceSpec,
    provider: ProviderSpec | None = None,
) -> Scenario:
    """The price-blind proximity scenario :func:`baseline_result` runs.

    Exposed so batch callers (the sweep executor) can hand replica
    baselines to :func:`run_many` and have them stacked like any other
    replica group.
    """
    return Scenario(
        name="baseline",
        description="Akamai-like proximity baseline",
        market=market,
        trace=trace_spec,
        router=RouterSpec.of("baseline"),
        provider=provider if provider is not None else active_provider(),
    )


@lru_cache(maxsize=32)
def _baseline_cached(
    market: MarketSpec, trace_spec: TraceSpec, provider: ProviderSpec
) -> SimulationResult:
    return run(baseline_scenario(market, trace_spec, provider))


def run(scenario: Scenario) -> SimulationResult:
    """Execute a scenario through the batched engine (memoised).

    Memoisation ignores ``name`` and ``description``: two scenarios
    that describe the same physical run share one result no matter
    what they are called. An active :func:`provider_override` is folded
    into the spec first, so memo and artifact keys name the provider
    that actually supplied the prices.

    ``follow_95_5`` scenarios first obtain the memoised baseline run
    over the same market and trace and constrain themselves to its
    95th percentiles; ``relocate_fleet`` scenarios account energy with
    the whole fleet's servers at the router's target cluster.
    """
    scenario = physical(scenario)
    result = _runs.get(scenario)
    if result is None:
        result = _runs.put(scenario, _load_or_execute(scenario))
    return result


#: Finished runs keyed on the *physical* scenario, least recently used
#: first. ``run`` and ``run_many`` fill it; it is the only record of
#: which scenarios this process has memoised.
_runs: BoundedMemo[Scenario, SimulationResult] = BoundedMemo(256)


@lru_cache(maxsize=1024)
def _store_key(scenario: Scenario) -> artifacts.KeyedSpec:
    """A physical scenario's store address, canonicalised once per process."""
    return artifacts.keyed(scenario)


def _load_or_execute(scenario: Scenario) -> SimulationResult:
    store = artifacts.get_store()
    if store is not None and not artifacts.refresh_mode():
        cached = store.load_simulation(_store_key(scenario))
        if cached is not None:
            return cached
    result = _execute(scenario)
    if store is not None:
        store.save_simulation(_store_key(scenario), result)
    return result


def _engine_inputs(
    scenario: Scenario,
) -> tuple[MarketDataset, RoutingProblem, SimulationOptions, np.ndarray | None]:
    """The engine inputs of a *resolved* scenario, bar trace and router.

    Dataset, problem, engine options (including the memoised
    baseline's 95/5 caps for ``follow_95_5`` scenarios), and relocated
    server counts. The offline run, the stacked replica pass and both
    session openers assemble their inputs here.
    """
    data = dataset(scenario.market, scenario.provider)
    prob = problem()

    caps = None
    if scenario.follow_95_5:
        caps = baseline_result(
            scenario.market, scenario.trace, scenario.provider
        ).percentiles_95()
    options = SimulationOptions(
        reaction_delay_hours=scenario.reaction_delay_hours,
        capacity_margin=scenario.capacity_margin,
        relax_capacity=scenario.relax_capacity,
        bandwidth_caps=caps,
    )

    server_counts = None
    if scenario.relocate_fleet:
        if scenario.router.kind == "static-cheapest":
            target = _static_cheapest_index(scenario)
        elif scenario.router.kind == "static":
            target = int(scenario.router.kwargs["cluster_index"])
        else:
            raise ConfigurationError("relocate_fleet requires a static router kind")
        deployment = prob.deployment
        counts = np.zeros(deployment.n_clusters)
        counts[target] = sum(c.n_servers for c in deployment.clusters)
        server_counts = counts

    return data, prob, options, server_counts


def _execute(scenario: Scenario) -> SimulationResult:
    data, prob, options, server_counts = _engine_inputs(scenario)
    return simulate(
        trace(scenario.trace, scenario.market),
        data,
        prob,
        build_router(scenario),
        options,
        server_counts=server_counts,
        router_prices=_signal_rows(scenario),
    )


def _refuse_signal_kinds(scenario: Scenario) -> None:
    """Signal-driven router kinds (``carbon``, ``weather``) replay
    per-trace price overrides and have no online form."""
    if scenario.router.kind in ("carbon", "weather"):
        raise ConfigurationError(
            f"router kind {scenario.router.kind!r} routes on a per-trace signal "
            "override and cannot serve an incremental session"
        )


def open_session(scenario: Scenario, n_steps: int | None = None) -> RoutingSession:
    """Open an incremental :class:`~repro.sim.session.RoutingSession`.

    The online counterpart of :func:`run`: the same scenario spec
    assembles the same ingredients — provider-backed market data set,
    routing problem, router, engine options (including the memoised
    baseline's 95/5 caps for ``follow_95_5`` scenarios, and relocated
    server counts) — but instead of replaying the scenario's synthetic
    trace, the session adopts only its step *grid* (start, step size,
    horizon) and waits for demand to arrive step by step. Feeding the
    scenario's own trace rows reproduces :func:`run`'s result bit for
    bit.

    ``n_steps`` shortens the horizon (serving a prefix of the
    scenario's window); it cannot extend past the scenario's trace.
    Signal-driven router kinds (``carbon``, ``weather``) replay
    per-trace price overrides and have no online form.
    """
    scenario = _resolve(scenario)
    _refuse_signal_kinds(scenario)
    data, prob, options, server_counts = _engine_inputs(scenario)
    grid = trace(scenario.trace, scenario.market)
    horizon = grid.n_steps if n_steps is None else int(n_steps)
    if not 1 <= horizon <= grid.n_steps:
        raise ConfigurationError(
            f"session horizon must be in [1, {grid.n_steps}], got {horizon}"
        )

    return RoutingSession(
        data,
        prob,
        build_router(scenario),
        options,
        start=grid.start,
        step_seconds=grid.step_seconds,
        n_steps=horizon,
        server_counts=server_counts,
    )


def open_rolling_session(
    scenario: Scenario,
    *,
    window_steps: int,
    max_windows: int | None = None,
    retain_windows: int | None = None,
    resume_results: Sequence[SimulationResult] = (),
) -> RollingSession:
    """Open a :class:`~repro.sim.rolling.RollingSession` over a scenario.

    The rolling counterpart of :func:`open_session`: the scenario's
    step grid is sliced into consecutive billing windows of
    ``window_steps`` steps each, and a window provider materialises
    the next :class:`RoutingSession` every time the current window
    fills — for as long as the scenario's *price provider* covers the
    calendar, which can run well past the scenario's own trace (the
    trace contributes only the grid's start and step size). Each
    window gets fresh 95/5 accounting against the same memoised
    baseline caps — billing windows are independent.

    ``max_windows`` bounds the chain explicitly; it cannot exceed what
    the provider's calendar covers. The total horizon is always known
    (``RollingSession.n_steps``), so the serving layer can reject
    overflow with a clean exhaustion error rather than mid-feed.

    ``resume_results`` restarts the chain from a checkpoint: the banked
    per-window results of a prior run over the *same* scenario and
    window size, in window order. The provider resumes at window
    ``len(resume_results)`` — the same calendar slice an uninterrupted
    run would have reached — so re-fed demand routes bit-identically.
    """
    scenario = _resolve(scenario)
    if window_steps < 1:
        raise ConfigurationError("window_steps must be at least one step")
    _refuse_signal_kinds(scenario)
    data, prob, options, server_counts = _engine_inputs(scenario)
    grid = trace(scenario.trace, scenario.market)

    calendar = data.calendar
    window_seconds = window_steps * grid.step_seconds
    offset_seconds = (grid.start - calendar.start).total_seconds()
    if offset_seconds < 0:
        raise ConfigurationError("scenario grid starts before the market calendar")
    available = calendar.n_hours * SECONDS_PER_HOUR - offset_seconds
    n_available = int(available // window_seconds)
    if n_available < 1:
        raise ConfigurationError(
            f"a {window_steps}-step window does not fit the provider's calendar "
            f"({int(available // grid.step_seconds)} steps available)"
        )
    if max_windows is not None:
        if max_windows < 1:
            raise ConfigurationError("max_windows must be positive")
        if max_windows > n_available:
            raise ConfigurationError(
                f"max_windows={max_windows} exceeds the provider's calendar "
                f"coverage ({n_available} windows of {window_steps} steps)"
            )
        n_windows = max_windows
    else:
        n_windows = n_available

    if len(resume_results) >= n_windows:
        raise ConfigurationError(
            f"cannot resume: {len(resume_results)} banked window(s) leave nothing of "
            f"the {n_windows}-window chain to serve"
        )
    for i, banked in enumerate(resume_results):
        if banked.loads.shape[0] != window_steps:
            raise ConfigurationError(
                f"banked window {i} spans {banked.loads.shape[0]} step(s), but the "
                f"chain's windows are {window_steps} steps — wrong checkpoint?"
            )

    router = build_router(scenario)

    def window(index: int) -> RoutingSession | None:
        if index >= n_windows:
            return None
        return RoutingSession(
            data,
            prob,
            router,
            options,
            start=grid.start + timedelta(seconds=index * window_seconds),
            step_seconds=grid.step_seconds,
            n_steps=window_steps,
            server_counts=server_counts,
        )

    return RollingSession(
        window,
        total_steps=n_windows * window_steps,
        retain_windows=retain_windows,
        resume_results=resume_results,
    )


def _stack_key(scenario: Scenario) -> Scenario:
    """The scenario with its trace seed normalised away.

    Two scenarios share a stack when they are identical except for the
    traffic seed — exactly a sweep's seeded replicas of one grid cell.
    """
    return scenario.derive(trace=replace(scenario.trace, seed=0))


def _stackable(scenario: Scenario) -> bool:
    """Whether a scenario may run through the fused multi-replica pass.

    Excluded are the cases whose engine inputs are not shared across
    replicas: ``follow_95_5`` (each replica constrains itself to its
    *own* baseline's 95th percentiles), ``relocate_fleet`` (static
    accounting), and the signal-driven router kinds whose
    ``router_prices`` override is derived per trace.
    """
    return (
        not scenario.follow_95_5
        and not scenario.relocate_fleet
        and scenario.router.kind not in ("carbon", "weather")
    )


def _execute_stacked(group: list[Scenario], traces: list[TrafficTrace]) -> list[SimulationResult]:
    """One stack group's results, from one fused pass over its traces."""
    first = group[0]
    data, prob, options, server_counts = _engine_inputs(first)
    return simulate_many(traces, data, prob, build_router(first), options, server_counts)


def run_many(specs: Iterable[Scenario]) -> tuple[SimulationResult, ...]:
    """Execute many scenarios into the memo, stacking replica groups.

    The sweep executor's batch entry. Scenarios that differ only in
    their traffic seed — a sweep cell's seeded replicas, or the
    replicas' shared baselines — are routed through
    :func:`repro.sim.engine.simulate_many` as one stacked pass (one
    price/limit precompute, fused routing calls); the rest run one by
    one, baselines before the ``follow_95_5`` runs capped by them.
    Results go straight into the run memo, where :func:`run` finds
    them: this path neither reads nor publishes simulation artifacts,
    so a point another process published is recomputed here. Results
    are bit-identical either way — the stacked engine is pinned to
    :func:`simulate`.
    """
    runs = [physical(s) for s in specs]
    results = {scenario: _runs.get(scenario) for scenario in runs}
    pending = [scenario for scenario, result in results.items() if result is None]

    stacks: dict[Scenario, list[Scenario]] = {}
    for scenario in pending:
        if _stackable(scenario):
            stacks.setdefault(_stack_key(scenario), []).append(scenario)
    for group in (group for group in stacks.values() if len(group) >= 2):
        traces = [trace(s.trace, s.market) for s in group]
        for scenario, result in zip(group, _execute_stacked(group, traces)):
            results[scenario] = _runs.put(scenario, result)
    for scenario in sorted(pending, key=lambda s: s.follow_95_5):
        if results[scenario] is None:
            results[scenario] = _runs.put(scenario, _execute(scenario))

    return tuple(results[scenario] for scenario in runs)


def clear_caches() -> None:
    """Drop every in-process memo (datasets, traces, runs).

    Long-lived processes sweeping many markets — or tests that need a
    cold runner — call this instead of poking at individual
    ``cache_clear`` handles. The on-disk artifact store is *not*
    touched; that is ``repro clean``'s job.
    """
    for memo in (_dataset_cached, problem, trace, _baseline_cached, _store_key):
        memo.cache_clear()
    _runs.clear()
