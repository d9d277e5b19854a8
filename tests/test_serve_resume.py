"""Kill → checkpoint → ``--resume`` bit-identity, at every layer.

The robustness contract: a rolling server interrupted mid-window and
resumed from its drain checkpoint serves, from the last banked window
boundary onward, allocations **bitwise equal** to an uninterrupted run.
Three layers pin it — the checkpoint store round trip, an in-process
server killed and rebuilt (the SIGTERM handler's exact call sequence),
and the real CLI process killed with SIGTERM and restarted with
``--resume``.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import scenarios
from repro.artifacts import ArtifactStore
from repro.errors import ConfigurationError
from repro.serve import (
    HttpClient,
    RoutingServer,
    ServerConfig,
    SessionCheckpointSpec,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.checkpoint import resume_results

SCENARIO = "serve-smoke"
WINDOW = 4

REPO_ROOT = Path(__file__).resolve().parents[1]


def _rows(n: int) -> np.ndarray:
    scenario = scenarios.get(SCENARIO)
    return scenarios.trace(scenario.trace, scenario.market).demand[:n]


def _assert_results_identical(resumed, full):
    assert len(resumed) == len(full)
    for r, f in zip(resumed, full):
        assert r.start == f.start
        assert np.array_equal(r.loads, f.loads)
        assert np.array_equal(r.paid_prices, f.paid_prices)


# -- the checkpoint store ------------------------------------------------------


def test_checkpoint_round_trips_banked_windows_only(tmp_path):
    store = ArtifactStore(tmp_path)
    spec = SessionCheckpointSpec(scenario=SCENARIO, window_steps=WINDOW)
    roller = scenarios.open_rolling_session(
        scenarios.get(SCENARIO), window_steps=WINDOW, max_windows=3
    )

    # Nothing banked yet: saving is a no-op, loading is a miss.
    assert save_checkpoint(store, spec, roller) is None
    assert load_checkpoint(store, spec) == ()

    rows = _rows(10)
    roller.feed(rows)  # 2 banked windows + 2 steps into the third
    path = save_checkpoint(store, spec, roller)
    assert path is not None and path.exists()
    assert roller.checkpoint_state() == {"windows_completed": 2, "steps_banked": 8}

    banked = load_checkpoint(store, spec)
    _assert_results_identical(banked, roller.results())

    # The spec is the address: any other configuration must miss.
    assert load_checkpoint(store, SessionCheckpointSpec(SCENARIO, WINDOW + 1)) == ()
    assert (
        load_checkpoint(store, SessionCheckpointSpec(SCENARIO, WINDOW, shard_index=1, n_shards=2))
        == ()
    )

    # resume_results gates on the resume flag and the store's presence.
    assert resume_results(store, spec, resume=False) == ()
    assert resume_results(None, spec, resume=True) == ()
    _assert_results_identical(resume_results(store, spec, resume=True), banked)

    # Saving again after more progress overwrites with the full history.
    roller.feed(_rows(12)[10:])
    save_checkpoint(store, spec, roller)
    assert len(load_checkpoint(store, spec)) == 3


def test_resume_validation_rejects_mismatched_checkpoints():
    scenario = scenarios.get(SCENARIO)
    roller = scenarios.open_rolling_session(scenario, window_steps=WINDOW, max_windows=2)
    roller.feed(_rows(2 * WINDOW))
    banked = roller.results()

    with pytest.raises(ConfigurationError, match="leave nothing"):
        scenarios.open_rolling_session(
            scenario, window_steps=WINDOW, max_windows=2, resume_results=banked
        )
    with pytest.raises(ConfigurationError, match="wrong checkpoint"):
        scenarios.open_rolling_session(
            scenario, window_steps=WINDOW + 1, max_windows=2, resume_results=banked[:1]
        )


# -- in-process kill + resume (the SIGTERM handler's call sequence) ------------


def test_server_killed_mid_window_resumes_bit_identically(tmp_path):
    n_total = 3 * WINDOW
    cut = 6  # mid second window: 1 banked window + 2 live steps lost
    rows = _rows(n_total)
    store = ArtifactStore(tmp_path)
    spec = SessionCheckpointSpec(scenario=SCENARIO, window_steps=WINDOW)

    async def serve_steps(session, demand_rows, *, full=True):
        server = RoutingServer(
            session,
            ServerConfig(host="127.0.0.1", port=0, window_ms=2.0, scenario=SCENARIO),
        )
        await server.start()
        try:
            async with HttpClient("127.0.0.1", server.port) as client:
                bodies = [await client.route(row.tolist(), full=full) for row in demand_rows]
        finally:
            drained = await server.stop(drain=True)
        return bodies, drained

    def run(coro):
        return asyncio.run(coro)

    # First life: serve 6 steps, drain, checkpoint — the CLI's SIGTERM path.
    first = scenarios.open_rolling_session(
        scenarios.get(SCENARIO), window_steps=WINDOW, max_windows=3
    )
    _, drained = run(serve_steps(first, rows[:cut]))
    assert drained
    save_checkpoint(store, spec, first)
    assert first.checkpoint_state() == {"windows_completed": 1, "steps_banked": WINDOW}

    # Second life: resume from the checkpoint, serve from the boundary.
    banked = resume_results(store, spec, resume=True)
    resumed = scenarios.open_rolling_session(
        scenarios.get(SCENARIO), window_steps=WINDOW, max_windows=3, resume_results=banked
    )
    assert resumed.steps_fed == WINDOW  # steps 4..5 are re-served, not skipped
    bodies, _ = run(serve_steps(resumed, rows[WINDOW:]))
    assert [b["step"] for b in bodies] == list(range(WINDOW, n_total))

    # The uninterrupted control run.
    control = scenarios.open_rolling_session(
        scenarios.get(SCENARIO), window_steps=WINDOW, max_windows=3
    )
    control_allocations = control.feed(rows)

    # Every banked window — including the resumed first — is bitwise
    # equal, and so is each served allocation matrix past the boundary.
    _assert_results_identical(resumed.results(), control.results())
    for body in bodies:
        assert np.array_equal(
            np.asarray(body["allocation"]["matrix"]),
            control_allocations[body["step"]],
        )


# -- the real CLI: SIGTERM, then --resume --------------------------------------


def _spawn_serve(store_dir: Path, *extra: str) -> tuple[subprocess.Popen, int, str]:
    """Start ``repro serve`` on an ephemeral port.

    Returns ``(proc, port, startup_banner)`` — the banner is whatever
    the CLI printed to stderr up to and including the port line (the
    ``--resume`` acknowledgement precedes it).
    """
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--scenario", SCENARIO, "--rolling-window", str(WINDOW),
            "--port", "0", "--artifacts", str(store_dir), *extra,
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60
    banner = []
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line and proc.poll() is not None:
            break
        banner.append(line)
        match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
        if match:
            return proc, int(match.group(1)), "".join(banner)
    proc.kill()
    raise AssertionError(f"server never printed its port; stderr: {''.join(banner)}")


def _terminate(proc: subprocess.Popen) -> str:
    proc.send_signal(signal.SIGTERM)
    try:
        _, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise
    assert proc.returncode == 0
    return stderr


async def _route_all(port: int, demand_rows) -> list[dict]:
    async with HttpClient("127.0.0.1", port, max_retries=5, backoff_base_s=0.05) as client:
        return [await client.route(row.tolist(), full=True) for row in demand_rows]


def test_cli_sigterm_checkpoint_then_resume_is_bit_identical(tmp_path):
    n_total = 3 * WINDOW
    cut = 6
    rows = _rows(n_total)

    # First life: route 6 steps (mid window 2), SIGTERM → drain + checkpoint.
    proc, port, _ = _spawn_serve(tmp_path)
    try:
        first_bodies = asyncio.run(_route_all(port, rows[:cut]))
    except BaseException:
        proc.kill()
        raise
    stderr = _terminate(proc)
    assert [b["step"] for b in first_bodies] == list(range(cut))
    assert "checkpointed 1 window(s)" in stderr
    assert re.search(rf"\b{WINDOW} steps\b", stderr)

    # Second life: --resume re-serves from the banked boundary.
    proc, port, banner = _spawn_serve(tmp_path, "--resume")
    try:
        resumed_bodies = asyncio.run(_route_all(port, rows[WINDOW:]))
    except BaseException:
        proc.kill()
        raise
    _terminate(proc)
    assert "resumed from checkpoint (1 banked window(s)" in banner
    assert [b["step"] for b in resumed_bodies] == list(range(WINDOW, n_total))

    # Control: the same steps through an uninterrupted offline chain.
    control = scenarios.open_rolling_session(scenarios.get(SCENARIO), window_steps=WINDOW)
    control_allocations = control.feed(rows)
    for body in first_bodies + resumed_bodies:
        assert np.array_equal(
            np.asarray(body["allocation"]["matrix"]),
            control_allocations[body["step"]],
        )


def test_cli_resume_under_another_provider_starts_fresh(tmp_path):
    """A checkpoint banked on one provider's prices must not resume another's.

    The first life serves the default (synthetic) prices and banks one
    window; the second asks for ``--provider spiky-markets --resume``
    against the same store and must start from step 0.
    """
    rows = _rows(WINDOW + 1)
    proc, port, _ = _spawn_serve(tmp_path)
    try:
        asyncio.run(_route_all(port, rows))
    except BaseException:
        proc.kill()
        raise
    assert "checkpointed 1 window(s)" in _terminate(proc)

    proc, port, banner = _spawn_serve(tmp_path, "--provider", "spiky-markets", "--resume")
    try:
        bodies = asyncio.run(_route_all(port, rows[:1]))
    except BaseException:
        proc.kill()
        raise
    _terminate(proc)
    assert "resumed from checkpoint" not in banner
    assert bodies[0]["step"] == 0


def _read_until(proc: subprocess.Popen, text: str, seen: str) -> str:
    """Read ``proc``'s stderr until ``text`` appears; everything read."""
    lines = [seen]
    deadline = time.monotonic() + 60
    while text not in "".join(lines) and time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line and proc.poll() is not None:
            break
        lines.append(line)
    if text not in "".join(lines):
        proc.kill()
        raise AssertionError(f"never saw {text!r}; stderr: {''.join(lines)}")
    return "".join(lines)


async def _per_shard_steps(port: int) -> list[int]:
    async with HttpClient("127.0.0.1", port) as client:
        _, stats = await client.request("GET", "/stats")
    return [row["steps_fed"] for row in stats["per_shard"]]


def test_cli_sharded_checkpoint_resume_and_provider_miss(tmp_path):
    """Each shard checkpoints on SIGTERM and resumes only its own chain.

    One keep-alive connection lands on one shard, so routing a window
    and a step over it banks exactly one window on that shard.
    """
    rows = _rows(WINDOW + 1)
    shard_line = r"shard \d: "

    proc, port, banner = _spawn_serve(tmp_path, "--workers", "2")
    try:
        _read_until(proc, "sharded across 2 workers", banner)
        asyncio.run(_route_all(port, rows))
    except BaseException:
        proc.kill()
        raise
    assert re.search(shard_line + r"checkpointed 1 window\(s\)", _terminate(proc))

    proc, port, banner = _spawn_serve(tmp_path, "--workers", "2", "--resume")
    try:
        banner = _read_until(proc, "sharded across 2 workers", banner)
        steps = asyncio.run(_per_shard_steps(port))
    except BaseException:
        proc.kill()
        raise
    stderr = banner + _terminate(proc)
    assert re.search(shard_line + r"resumed from checkpoint \(1 banked window\(s\)", stderr)
    assert sorted(steps) == [0, WINDOW]

    proc, port, banner = _spawn_serve(
        tmp_path, "--workers", "2", "--provider", "spiky-markets", "--resume"
    )
    try:
        banner = _read_until(proc, "sharded across 2 workers", banner)
        steps = asyncio.run(_per_shard_steps(port))
    except BaseException:
        proc.kill()
        raise
    stderr = banner + _terminate(proc)
    assert "resumed from checkpoint" not in stderr
    assert steps == [0, 0]
