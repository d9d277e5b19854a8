"""The one serving lifecycle behind ``repro serve`` and every shard worker.

:func:`serve` takes a server from a :class:`ServeSpec` and a
:class:`~repro.serve.server.ServerConfig` to a drained, checkpointed
stop:

1. open the scenario's fixed-horizon or rolling session under the
   provider override, resuming the banked windows its checkpoint key
   addresses when asked;
2. wrap the session in the armed fault plan (``REPRO_FAULTS``) and
   front it with a :class:`~repro.serve.server.RoutingServer`;
3. serve until SIGTERM or SIGINT, heartbeating into the
   :class:`~repro.serve.shard.ShardBoard` when there is one;
4. drain in-flight requests, then checkpoint the rolling chain.

The in-process ``repro serve`` calls it directly; each
:class:`~repro.serve.shard.ShardedServer` worker calls it with its own
shard's config and the shared board. A shard prefixes its stderr lines
with its index.
"""

from __future__ import annotations

import asyncio
import signal
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import artifacts, scenarios
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, wrap_session
from repro.markets.providers import preset
from repro.scenarios.runner import provider_override
from repro.serve.checkpoint import SessionCheckpointSpec, resume_results, save_checkpoint
from repro.serve.server import RoutingServer, ServerConfig

if TYPE_CHECKING:
    from repro.serve.shard import ShardBoard

__all__ = ["ServeSpec", "serve"]

#: How often a shard re-publishes its board row with a fresh heartbeat
#: even when no requests arrive.
HEARTBEAT_INTERVAL_S = 0.5


@dataclass(frozen=True)
class ServeSpec:
    """What a server serves; picklable, so a shard worker receives it whole.

    The fields mirror ``repro serve`` flags, and each refused
    combination names the flags involved.
    """

    scenario: str
    #: Fixed-horizon sessions only: serve the first ``steps`` steps.
    steps: int | None = None
    #: Chain billing windows of this many steps instead of one horizon.
    rolling_window: int | None = None
    max_windows: int | None = None
    #: Market-data provider preset overriding the scenario's default.
    provider: str | None = None
    #: Artifact store for drain checkpoints (rolling sessions only).
    store_dir: str | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.rolling_window is None:
            if self.resume:
                raise ConfigurationError("--resume needs --rolling-window")
            if self.max_windows is not None:
                raise ConfigurationError("max_windows needs --rolling-window")
        elif self.steps is not None:
            raise ConfigurationError(
                "--steps sets a fixed horizon; a --rolling-window session has none"
            )
        if self.resume and self.store_dir is None:
            raise ConfigurationError(
                "--resume needs an artifact store to resume from (drop --no-store)"
            )


def serve(spec: ServeSpec, config: ServerConfig, *, board: ShardBoard | None = None) -> int:
    """Serve ``spec`` under ``config`` until SIGTERM/SIGINT; the exit status.

    Returns ``2`` after reporting a scenario that cannot be opened (an
    unknown name or provider, a horizon or checkpoint that does not
    fit), ``0`` once stopped.
    """
    prefix = "repro serve: " if board is None else f"repro serve: shard {config.shard_index}: "

    def say(message: str) -> None:
        print(prefix + message, file=sys.stderr)

    store = artifacts.configure(spec.store_dir) if spec.store_dir is not None else None
    key = None
    try:
        provider = preset(spec.provider).spec if spec.provider is not None else None
        with provider_override(provider):
            scenario = scenarios.get(spec.scenario)
            if spec.rolling_window is None:
                session = scenarios.open_session(scenario, n_steps=spec.steps)
                shape = f"horizon {session.n_steps} steps"
            else:
                key = SessionCheckpointSpec(
                    scenario=scenarios.physical(scenario),
                    window_steps=spec.rolling_window,
                    shard_index=config.shard_index,
                    n_shards=config.n_shards,
                )
                banked = resume_results(store, key, resume=spec.resume)
                session = scenarios.open_rolling_session(
                    scenario,
                    window_steps=spec.rolling_window,
                    max_windows=spec.max_windows,
                    resume_results=banked,
                )
                shape = (
                    f"rolling {spec.rolling_window}-step windows, "
                    f"{session.n_steps} steps total"
                )
                if banked:
                    say(
                        f"resumed from checkpoint ({len(banked)} banked window(s), "
                        f"{session.steps_fed} steps)"
                    )
    except ConfigurationError as exc:
        say(str(exc))
        return 2

    server = RoutingServer(
        wrap_session(session, FaultPlan.from_env(), shard=config.shard_index),
        config,
        board=board,
    )
    async def run() -> bool:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:
                # Platforms without loop signal handlers fall back to
                # KeyboardInterrupt for SIGINT.
                pass
        await server.start()
        say(
            f"scenario={spec.scenario} router={scenario.router.kind} "
            f"on http://{config.host}:{server.port} ({shape}, window "
            f"{config.window_ms}ms, max batch {config.max_batch}, "
            f"queue bound {config.max_queue})"
        )
        beat = loop.create_task(_heartbeat(server)) if board is not None else None
        await stop.wait()
        if beat is not None:
            beat.cancel()
        say("draining...")
        return await server.stop(drain=True)

    try:
        drained = asyncio.run(run())
    except KeyboardInterrupt:
        say("stopped")
        return 0
    if store is not None and key is not None and save_checkpoint(store, key, session):
        state = session.checkpoint_state()
        say(
            f"checkpointed {state['windows_completed']} window(s) "
            f"({state['steps_banked']} steps) — restart with --resume to "
            "continue bit-identically"
        )
    say("stopped" + ("" if drained else " (drain deadline exceeded)"))
    return 0


async def _heartbeat(server: RoutingServer) -> None:
    while True:
        await asyncio.sleep(HEARTBEAT_INTERVAL_S)
        server._publish()
