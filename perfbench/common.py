"""Shared plumbing: paths, timing statistics, fresh stores, cold starts."""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Scratch space for artifact stores; removed at the end of every run.
WORK = ROOT / ".perfbench"

#: How many times a run repeats its set-up to report the median.
SETUP_REPEATS = 5


def program_env() -> dict[str, str]:
    """Environment for a child process that imports the program from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_ARTIFACT_DIR", None)
    env.pop("REPRO_FAULTS", None)
    return env


class Scratch:
    """A private work directory under ``.perfbench``, removed on exit."""

    def __enter__(self) -> "Scratch":
        WORK.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        return self

    def fresh(self, prefix: str) -> Path:
        """A new empty directory (a cold artifact store)."""
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.path))

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still owns a directory in it


def interquartile_mean(values: list[float]) -> float:
    """Mean of the samples between the first and third quartiles.

    The reference box's CPUs flip between a fast and a slow speed (a
    factor of about 1.4) every few seconds, independently per CPU. A
    median picks one of the two; the interquartile mean averages them
    over the run while still discarding stalls and outliers.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo, hi = n // 4, n - n // 4
    return statistics.fmean(ordered[lo:hi])


def cold_start_seconds(timeout: float = 60.0) -> float:
    """Wall-clock of one fresh interpreter running ``coldstart.py``."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("coldstart.py"))],
        cwd=ROOT,
        env=program_env(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=timeout,
        check=True,
    )
    return time.perf_counter() - t0


def cold_setup() -> float:
    """Median program cold start over :data:`SETUP_REPEATS` fresh interpreters.

    Each is scaled to the nominal host speed (see ``speed.py``). Then
    finishes the same lazy set-up in this process, so no timed unit of
    work pays it.
    """
    from coldstart import first_touch
    from speed import SpeedProbe

    probe = SpeedProbe()
    setup_s = statistics.median(probe.scale(cold_start_seconds()) for _ in range(SETUP_REPEATS))
    first_touch()
    return setup_s


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: End-to-end latency of every completed unit of work, in seconds
    #: (scaled to the nominal host speed where the workload uses ``speed``).
    latencies_s: list[float]
    #: Work items completed in the measured region (figures, points, requests).
    units: int
    #: Median set-up time over :data:`SETUP_REPEATS` set-ups.
    setup_s: float
    attempted: int
    failed: int
    #: Every output check passed.
    correct: bool
    #: Per-layer metrics (traced runs only).
    layers: dict | None = None

    def end_to_end(self) -> dict:
        """The end-to-end metric block every workload reports."""
        return {
            "latency_ms": {"value": interquartile_mean(self.latencies_s) * 1000.0, "unit": "ms"},
            "setup_s": {"value": self.setup_s, "unit": "s"},
        }
