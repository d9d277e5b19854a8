"""The program's cold start: import it and finish its lazy set-up.

A fresh ``repro`` process pays two costs before its first unit of work:
importing the CLI (every figure driver and sweep spec comes with it),
and the lazy imports that market generation pulls in on first use.
:func:`first_touch` does both, with a one-month market. The figures and
campaign workloads run it in-process before timing, so no timed unit
carries it, and report its cost as ``setup_s``: the median wall-clock of
this script run in fresh interpreters, scaled to the nominal host speed
(see ``speed.py``).

Run:  PYTHONPATH=src python3 perfbench/coldstart.py
"""

from __future__ import annotations


def first_touch() -> None:
    from datetime import datetime

    import repro.cli  # noqa: F401
    from repro.markets import MarketConfig, generate_market

    generate_market(MarketConfig(start=datetime(2008, 11, 1), months=1, seed=1))


if __name__ == "__main__":
    first_touch()
