"""Memory a serving session keeps per completed billing window.

A long-lived ``/route`` server feeds one demand row per request through
a rolling session. Each completed window keeps its
``SimulationResult`` (the server passes no ``retain_windows``), and
nothing else should grow with uptime: the engine ledger holds a running
``(n_states, n_clusters)`` chunk sum, not a buffer of every step's
allocation.
"""

from __future__ import annotations

import tracemalloc

from repro import scenarios

#: Ceiling on the memory one completed ``serve-smoke`` window (288
#: five-minute steps) may leave behind.
PER_WINDOW_BYTES = 200 * 1024


def test_each_served_window_retains_at_most_200_kb():
    scenario = scenarios.get("serve-smoke")
    grid = scenarios.trace(scenario.trace, scenario.market)
    window_steps = grid.n_steps
    warm, measured = 2, 18
    roller = scenarios.open_rolling_session(
        scenario, window_steps=window_steps, max_windows=warm + measured
    )
    rows = grid.demand

    def serve_window() -> None:
        for row in rows:
            roller.feed(row[None, :])

    for _ in range(warm):
        serve_window()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(measured):
            serve_window()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert roller.exhausted
    assert len(roller.results()) == warm + measured
    per_window = (after - before) / measured
    assert per_window <= PER_WINDOW_BYTES, f"{per_window / 1024:.0f} KB retained per window"
