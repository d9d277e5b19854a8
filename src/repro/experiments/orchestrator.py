"""Parallel figure execution over the artifact store.

The twenty experiment drivers are independent of each other, so a full
regeneration of the paper's figure set is embarrassingly parallel at
the figure level. :func:`run_figures` fans drivers out over a process
pool (``jobs`` workers), with the content-addressed artifact store as
the shared memo: workers publish every finished simulation and figure
there, so concurrent sweeps that share scenario runs converge on one
simulation per spec across *invocations* (two workers racing within
one cold run may both compute a shared scenario — writes are atomic
and identical — but every later run loads it from disk).

Figures travel between processes as their JSON artifact payloads, so
a parallel run returns bit-identical data to a serial one.
"""

from __future__ import annotations

import inspect
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro import artifacts
from repro.artifacts.codec import OMIT_DEFAULT
from repro.errors import ConfigurationError
from repro.experiments import REGISTRY
from repro.experiments.common import FigureResult
from repro.markets.providers import ProviderSpec
from repro.scenarios import provider_override

__all__ = ["FigureSpec", "resolve_figure_ids", "run_figure", "run_figures"]


@dataclass(frozen=True, slots=True)
class FigureSpec:
    """Frozen description of one figure regeneration.

    ``seed=None`` means "the driver's published default" — the paper's
    configuration, and the key the committed goldens are stored under.
    ``provider`` re-points every default-provider scenario the driver
    touches at a different price source (``repro run --provider ...``);
    ``None`` — the default, omitted from the content address — keeps
    the synthetic generator and the pre-provider artifact keys.
    """

    figure_id: str
    seed: int | None = None
    provider: ProviderSpec | None = field(default=None, metadata={OMIT_DEFAULT: True})

    def __post_init__(self) -> None:
        if self.figure_id not in REGISTRY:
            raise ConfigurationError(
                f"unknown figure id {self.figure_id!r}; "
                f"available: {', '.join(sorted(REGISTRY))}"
            )


def resolve_figure_ids(figure_ids: list[str] | None, all_figures: bool) -> list[str]:
    """Validate and order the requested figure ids.

    Raises :class:`ConfigurationError` naming every unknown id at once
    so a typo in a twenty-figure invocation fails with one message.
    """
    if all_figures:
        return sorted(REGISTRY)
    chosen = list(figure_ids or [])
    unknown = [fid for fid in chosen if fid not in REGISTRY]
    if unknown:
        raise ConfigurationError(
            f"unknown figure ids: {', '.join(unknown)}; "
            f"available: {', '.join(sorted(REGISTRY))}"
        )
    return chosen


def _call_driver(spec: FigureSpec) -> FigureResult:
    module = REGISTRY[spec.figure_id]
    with provider_override(spec.provider):
        if spec.seed is None:
            return module.run()
        if "seed" not in inspect.signature(module.run).parameters:
            # fig01 is seedless (a closed-form table); an explicit seed is
            # simply irrelevant to it rather than an error.
            return module.run()
        return module.run(seed=spec.seed)


def run_figure(spec: FigureSpec, *, force: bool = False) -> FigureResult:
    """Run one figure through the artifact store (in-process).

    ``force`` recomputes the whole chain: the figure artifact is
    ignored *and* the runner's simulation-artifact reads are suspended
    (refresh mode) for the duration, so a forced run can never be
    satisfied by results persisted before a code change. Fresh results
    still overwrite the store.
    """
    store = artifacts.get_store()
    if store is not None and not force:
        cached = store.load_figure(spec)
        if cached is not None:
            return FigureResult.from_json_dict(cached)
    if force:
        artifacts.set_refresh(True)
    try:
        result = _call_driver(spec)
    finally:
        if force:
            artifacts.set_refresh(False)
    if store is not None:
        store.save_figure(spec, result.to_json_dict())
    return result


def _init_worker(store_root: str | None) -> None:
    artifacts.configure(store_root)


def _worker_run(spec: FigureSpec, force: bool) -> dict:
    return run_figure(spec, force=force).to_json_dict()


def run_figures(
    figure_ids: list[str],
    *,
    jobs: int = 1,
    seed: int | None = None,
    force: bool = False,
    provider: ProviderSpec | None = None,
) -> list[FigureResult]:
    """Regenerate figures, optionally across a process pool.

    Results come back in input order. ``jobs <= 1`` runs serially in
    this process (sharing its warm in-process memos); ``jobs > 1``
    spawns workers that inherit the active artifact store, which is
    then the only cross-worker cache.

    A forced batch starts from a cold in-process cache too: entries
    that were originally *loaded* from the store (not computed) would
    otherwise leak stale results past the refresh.
    """
    if force:
        from repro import scenarios

        scenarios.clear_caches()
    specs = [FigureSpec(fid, seed, provider) for fid in figure_ids]
    if jobs <= 1 or len(specs) <= 1:
        return [run_figure(spec, force=force) for spec in specs]

    root = artifacts.active_root()
    store_root = str(root) if root is not None else None
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(specs)),
        initializer=_init_worker,
        initargs=(store_root,),
    ) as pool:
        payloads = pool.map(_worker_run, specs, [force] * len(specs))
        return [FigureResult.from_json_dict(payload) for payload in payloads]
