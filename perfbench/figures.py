"""Workload ``figures``: cold `repro run` figure regeneration.

A user regenerating a figure on a fresh checkout waits for market
generation, trace generation, the simulations and the figure's
analysis, with nothing cached. Each figure here runs cold: a fresh
artifact store and empty in-process memos, then
``run_figures([figure], seed=...)`` — the call behind ``repro run``.

One unit of work is a pass over a fixed mix: a market-statistics
figure, the traffic figure, and the §6 elasticity figure, which runs
the price router over a 24-day trace under five energy models and both
95/5 disciplines. Latency is per pass: the sum of its three figures,
each scaled to the nominal host speed by the reference kernel timed
around it (see ``speed.py``).
The seed is the market generator seed every driver uses.

Correctness: every figure regenerates byte-identically in each pass,
and loading it back from its store gives the same payload again.
"""

from __future__ import annotations

import json
import time

from common import Outcome, Scratch, cold_setup
from layers import LayerTracer, install, per_layer
from speed import SpeedProbe

FIGURES = ("fig08", "fig14", "fig15")


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import artifacts, scenarios
    from repro.experiments.orchestrator import run_figures

    setup_s = cold_setup()
    tracer = install(LayerTracer()) if trace else None
    market_seed = 1000 + seed
    payloads: dict[str, str] = {}
    stores: dict = {}
    latencies: list[float] = []
    mismatches = 0
    with Scratch() as scratch:
        probe = SpeedProbe()
        t_start = time.perf_counter()
        while True:
            pass_s = 0.0
            for figure_id in FIGURES:
                store_dir = scratch.fresh(figure_id)
                artifacts.configure(store_dir)
                scenarios.clear_caches()
                t0 = time.perf_counter()
                if tracer is None:
                    (result,) = run_figures([figure_id], seed=market_seed)
                else:
                    (result,) = tracer.call("entry", run_figures, [figure_id], seed=market_seed)
                pass_s += probe.scale(time.perf_counter() - t0)
                payload = json.dumps(result.to_json_dict(), sort_keys=True)
                if payloads.setdefault(figure_id, payload) != payload:
                    mismatches += 1
                stores[figure_id] = store_dir
            latencies.append(pass_s)
            if time.perf_counter() - t_start >= seconds:
                break

        units = len(latencies) * len(FIGURES)
        layers = None
        if tracer is not None:
            layers = per_layer(tracer.snapshot(), units)
            tracer.uninstall()

        # Warm read-back: the store must hand back exactly what was computed.
        for figure_id, store_dir in stores.items():
            artifacts.configure(store_dir)
            scenarios.clear_caches()
            (warm,) = run_figures([figure_id], seed=market_seed)
            if json.dumps(warm.to_json_dict(), sort_keys=True) != payloads[figure_id]:
                mismatches += 1
        artifacts.configure(None)

    return Outcome(
        latencies_s=latencies,
        units=units,
        setup_s=setup_s,
        attempted=units,
        failed=0,
        correct=mismatches == 0,
        layers=layers,
    )
