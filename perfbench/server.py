"""Run ``repro serve`` in this process, optionally with the layer map traced.

Run:  python3 perfbench/server.py [--trace-out FILE] serve --port 0 ...

Everything after the optional ``--trace-out FILE`` is handed to the
``repro`` CLI unchanged, so the server is exactly what a user starts.
With ``--trace-out``, every layer boundary is spanned before the server
boots, and when it exits (SIGTERM drains it) the counters are written
to FILE as JSON. The serving layer's own share — HTTP parsing, the
micro-batcher's queue and window, response encoding and the socket
write — is each ``/route`` request's time in the server minus the time
the engine spent on it.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from common import SRC


def _trace_serving(tracer) -> list[float]:
    """Time every ``/route`` request's dispatch and response write.

    Returns the list the wrappers accumulate into: one total, in
    seconds, of time ``/route`` requests spent in the server.
    """
    from repro.serve.server import RoutingServer

    held = [0.0]
    dispatch = RoutingServer._dispatch
    respond = RoutingServer._respond

    async def traced_dispatch(self, method, path, body):
        t0 = time.perf_counter()
        try:
            return await dispatch(self, method, path, body)
        finally:
            if path.startswith("/route"):
                held[0] += time.perf_counter() - t0

    async def traced_respond(self, writer, status, payload, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return await respond(self, writer, status, payload, *args, **kwargs)
        finally:
            if "step" in payload:
                held[0] += time.perf_counter() - t0

    tracer.patch(RoutingServer, "_dispatch", traced_dispatch)
    tracer.patch(RoutingServer, "_respond", traced_respond)
    return held


def main() -> int:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    sys.path.insert(0, str(SRC))

    tracer = held = None
    if trace_out is not None:
        from layers import LayerTracer, install

        tracer = install(LayerTracer())
        held = _trace_serving(tracer)

    from repro.cli import main as repro_main

    status = repro_main(argv)
    if tracer is not None:
        tracer.uninstall()
        snapshot = tracer.snapshot()
        engine = snapshot["self_s"].get("sim", 0.0) + snapshot["self_s"].get("routing", 0.0)
        snapshot["self_s"]["entry"] = max(0.0, held[0] - engine)
        trace_out.write_text(json.dumps(snapshot))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
