"""Frozen scenario specifications.

A :class:`Scenario` is a complete, hashable description of one
simulation run: which market data set, which traffic trace, which
routing policy, and which engine options. Because every field is a
frozen value (no arrays, no live objects), scenarios can be compared,
used as cache keys, registered under names, and derived from one
another with :meth:`Scenario.derive` — the *what runs* half of the
policy/mechanism split; :mod:`repro.scenarios.runner` owns *how it
executes*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Any

from repro.artifacts.codec import OMIT_DEFAULT
from repro.errors import ConfigurationError
from repro.markets.calendar import PAPER_MONTHS, PAPER_START
from repro.markets.providers import ProviderSpec

__all__ = ["MarketSpec", "TraceSpec", "RouterSpec", "ProviderSpec", "Scenario"]

#: Trace kinds understood by the runner.
TRACE_KINDS = ("turn-of-year", "hour-of-week", "five-minute")

#: Router kinds understood by the runner.
ROUTER_KINDS = (
    "baseline",
    "price",
    "static",
    "static-cheapest",
    "joint",
    "carbon",
    "weather",
)


@dataclass(frozen=True, slots=True)
class MarketSpec:
    """Which synthetic market data set a scenario runs against.

    Defaults describe the paper's window: 39 months (Jan 2006 -
    Mar 2009) over all 29 hubs, generator seed 2009.
    """

    start: datetime = PAPER_START
    months: int = PAPER_MONTHS
    seed: int = 2009

    def __post_init__(self) -> None:
        if self.months < 1:
            raise ConfigurationError("market must span at least one month")


@dataclass(frozen=True, slots=True)
class TraceSpec:
    """Which traffic trace a scenario replays.

    Kinds
    -----
    ``turn-of-year``
        The paper's 24-day five-minute trace around the 2008/2009 year
        boundary (``start``/``n_steps`` ignored; they are fixed by the
        paper).
    ``five-minute``
        A synthetic five-minute trace of ``n_steps`` samples starting
        at ``start`` (both required).
    ``hour-of-week``
        §6.1's synthetic long workload: the turn-of-year trace's
        hour-of-week averages expanded over the scenario's whole
        market calendar.
    """

    kind: str = "turn-of-year"
    start: datetime | None = None
    n_steps: int | None = None
    seed: int = 1224

    def __post_init__(self) -> None:
        if self.kind not in TRACE_KINDS:
            raise ConfigurationError(
                f"unknown trace kind {self.kind!r}; expected one of {TRACE_KINDS}"
            )
        if self.kind == "five-minute" and (self.start is None or self.n_steps is None):
            raise ConfigurationError("five-minute traces need start and n_steps")


@dataclass(frozen=True, slots=True)
class RouterSpec:
    """Which routing policy a scenario runs, as (kind, frozen kwargs).

    ``params`` is a sorted tuple of ``(name, value)`` pairs so specs
    stay hashable; use :meth:`of` to build one from keyword arguments
    and :meth:`updated` to derive a tweaked copy (how the experiment
    sweeps vary a threshold without re-describing the scenario).
    """

    kind: str = "price"
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ROUTER_KINDS:
            raise ConfigurationError(
                f"unknown router kind {self.kind!r}; expected one of {ROUTER_KINDS}"
            )

    @classmethod
    def of(cls, kind: str, **params: Any) -> "RouterSpec":
        return cls(kind=kind, params=tuple(sorted(params.items())))

    @property
    def kwargs(self) -> dict[str, Any]:
        return dict(self.params)

    def updated(self, **params: Any) -> "RouterSpec":
        merged = {**self.kwargs, **params}
        return RouterSpec.of(self.kind, **merged)


@dataclass(frozen=True, slots=True)
class Scenario:
    """One fully specified simulation run.

    Attributes
    ----------
    name:
        Registry identifier (derived scenarios may reuse it; equality
        is over the whole spec, not the name).
    description:
        One line for listings.
    market / trace / router:
        The three ingredient specs.
    provider:
        Which price source materialises the market data
        (:class:`~repro.markets.providers.ProviderSpec`; default the
        synthetic generator). The field is omitted from the artifact
        content address while it holds the default, so pre-provider
        scenarios keep their hashes.
    reaction_delay_hours / capacity_margin / relax_capacity:
        Passed through to :class:`repro.sim.engine.SimulationOptions`.
    follow_95_5:
        When true, the run is constrained by the 95/5 ceilings of the
        *baseline* run over the same market and trace (the runner
        computes and memoises that baseline automatically).
    relocate_fleet:
        Account energy as if the whole fleet's servers sat at the
        router's single target cluster (the §6.3 static consolidation;
        only meaningful with the static router kinds).
    """

    name: str
    description: str = ""
    market: MarketSpec = field(default_factory=MarketSpec)
    trace: TraceSpec = field(default_factory=TraceSpec)
    router: RouterSpec = field(default_factory=RouterSpec)
    provider: ProviderSpec = field(
        default_factory=ProviderSpec,
        metadata={OMIT_DEFAULT: True},
    )
    reaction_delay_hours: int = 1
    capacity_margin: float = 0.97
    relax_capacity: bool = False
    follow_95_5: bool = False
    relocate_fleet: bool = False

    def derive(self, **changes: Any) -> "Scenario":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    def with_router(self, **params: Any) -> "Scenario":
        """A copy whose router keeps its kind but swaps parameters."""
        return replace(self, router=self.router.updated(**params))
