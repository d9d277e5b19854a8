"""Workload ``campaign``: a cold, real sweep campaign.

``campaign-grid`` is the registry's campaign-scale sweep (250 distance x
price cells, 40 traffic replicas each). One unit here is a cold run of a
slice of it — the first distance threshold and every fifth price
threshold, all 40 replicas, 80 points — through ``run_sweep``, the call
behind ``repro sweep run``: the lazy planner, the stacked replica
engine, the streaming reducers, and a checkpoint banked per work group
into a fresh artifact store. Nothing is stubbed; every point simulates.

The seed re-draws the market and the base traffic; the replicas' trace
seeds derive from it as they do in any campaign. The run is serial
(``jobs=1``), so the whole pipeline is on the traced thread. Latency is
per campaign, scaled to the nominal host speed by the reference kernel
timed around it (see ``speed.py``); the slice is small so a campaign
takes about half a second and the kernel keeps up with the host.

Correctness: every campaign in a run yields a byte-identical result, and
each cell's reported mean equals the mean of its points' metrics
computed one by one.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace

from common import Outcome, Scratch, cold_setup
from layers import LayerTracer, install, per_layer
from speed import SpeedProbe

#: Keep every n-th value of each ``campaign-grid`` axis (distance, price).
SLICE_STEPS = (25, 5)


def campaign_spec(seed: int):
    from repro import sweeps
    from repro.sweeps.spec import SweepAxis

    grid = sweeps.get("campaign-grid")
    base = grid.base
    return grid.derive(
        name="campaign-grid-slice",
        base=base.derive(
            market=replace(base.market, seed=1000 + seed),
            trace=replace(base.trace, seed=2000 + seed),
        ),
        axes=tuple(
            SweepAxis(a.name, a.values[::step], a.target) for a, step in zip(grid.axes, SLICE_STEPS)
        ),
    )


def _cells_match_points(spec, result) -> bool:
    """Each cell's streamed mean against its points' metrics, one by one."""
    from repro.sweeps import iter_points, point_metrics

    if len(result.cells) != spec.n_cells:
        return False
    sums = [0.0] * spec.n_cells
    for point in iter_points(spec):
        sums[point.cell_index] += point_metrics(point.scenario, point.energy)["savings_pct"]
    for cell, total in zip(result.cells, sums):
        if cell.n_replicas != spec.n_replicas:
            return False
        mean = cell.stats["savings_pct"].mean
        if not math.isclose(mean, total / spec.n_replicas, rel_tol=1e-9, abs_tol=1e-9):
            return False
    return True


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import artifacts, scenarios, sweeps

    setup_s = cold_setup()
    tracer = install(LayerTracer()) if trace else None
    spec = campaign_spec(seed)
    payloads: set[str] = set()
    latencies: list[float] = []
    with Scratch() as scratch:
        probe = SpeedProbe()
        t_start = time.perf_counter()
        while True:
            artifacts.configure(scratch.fresh("campaign"))
            scenarios.clear_caches()
            t0 = time.perf_counter()
            if tracer is None:
                result = sweeps.run_sweep(spec, jobs=1)
            else:
                result = tracer.call("entry", sweeps.run_sweep, spec, jobs=1)
            latencies.append(probe.scale(time.perf_counter() - t0))
            payloads.add(json.dumps(result.to_json_dict(), sort_keys=True))
            if time.perf_counter() - t_start >= seconds:
                break

        units = len(latencies) * spec.n_points
        layers = None
        if tracer is not None:
            layers = per_layer(tracer.snapshot(), units)
            tracer.uninstall()
        # The last campaign's simulations are still memoised in-process.
        correct = len(payloads) == 1 and _cells_match_points(spec, result)
        artifacts.configure(None)

    return Outcome(
        latencies_s=latencies,
        units=units,
        setup_s=setup_s,
        attempted=units,
        failed=0,
        correct=correct,
        layers=layers,
    )
