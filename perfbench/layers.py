"""The traced layer map: per-layer self time, measured from the outside.

With ``--trace 1`` the benchmark wraps each layer's entry points in a
span before it drives the workload. Nothing inside ``src/`` is edited:
the wrappers replace module attributes and class methods in the running
process, so the code paths are the ones a user runs, plus one
``perf_counter`` pair per call.

Layers (named after the package modules they wrap):

``entry``
    The workload's front door: the figure drivers
    (``repro.experiments``), the campaign pipeline (``repro.sweeps``),
    or the HTTP server and micro-batcher (``repro.serve``). The span is
    opened by the benchmark around its call into that layer.
``markets``
    ``repro.markets.providers.materialise_dataset`` — market data
    generation, or its load from the on-disk dataset cache.
``traffic``
    ``repro.scenarios.runner.trace`` — traffic trace generation.
``sim``
    ``simulate`` / ``simulate_many`` / ``RoutingSession.feed`` — the
    engine's precompute, reduce and finalize work around router calls.
``routing``
    Every router's ``allocate`` / ``allocate_batch``.
``store``
    The artifact store's reads and writes, including (de)serialisation.

A span's *self* time is its duration minus the time its child spans
cover. Spans nest per thread. A span may carry a weight: one
``RoutingSession.feed`` call routes ``k`` requests at once, so its time
(and its router calls') counts ``k`` times, once per request that
waited on it. That keeps the per-request map additive: the layers of a
request sum to the time the server held it.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from functools import wraps

LAYERS = ("entry", "markets", "traffic", "sim", "routing", "store")


class _Frame:
    __slots__ = ("layer", "weight", "child")

    def __init__(self, layer: str, weight: float) -> None:
        self.layer = layer
        self.weight = weight
        self.child = 0.0


class LayerTracer:
    """Accumulates weighted self time and call counts per layer."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.rows: Counter[str] = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn, *args, weight: float | None = None, rows: int = 0, **kwargs):
        """Run ``fn`` inside a ``layer`` span and return its result.

        A call into the layer already on top of the stack belongs to
        the outer span (a router's batch path falling back to its own
        scalar path is one routing call, not two).
        """
        stack = self._stack()
        if stack and stack[-1].layer == layer:
            return fn(*args, **kwargs)
        if weight is None:
            weight = stack[-1].weight if stack else 1.0
        frame = _Frame(layer, weight)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1].child += elapsed
            with self._lock:
                self.self_s[layer] += (elapsed - frame.child) * weight
                self.calls[layer] += 1
                self.rows[layer] += rows

    # -- installing spans -------------------------------------------------------

    def patch(self, owner: object, name: str, replacement: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def wrap_function(self, original, layer: str) -> None:
        """Span every module-level binding of ``original`` in ``repro``.

        ``from x import f`` copies the binding, so the function is
        replaced in every loaded ``repro`` module that holds it.
        """

        @wraps(original)
        def traced(*args, **kwargs):
            return self.call(layer, original, *args, **kwargs)

        # Memoised functions keep their cache handles (clear_caches uses them).
        for handle in ("cache_clear", "cache_info"):
            if hasattr(original, handle):
                setattr(traced, handle, getattr(original, handle))

        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, traced)

    def wrap_method(self, cls: type, name: str, layer: str, rows=None, weighted=False) -> None:
        """Span ``cls.name``; ``rows(args)`` counts the rows a call handles.

        ``weighted`` makes the row count the span's weight (a batch of
        ``k`` requests served by one call).
        """
        original = cls.__dict__[name]

        @wraps(original)
        def traced(*args, **kwargs):
            n = rows(args) if rows is not None else 0
            weight = float(n) if weighted else None
            return self.call(layer, original, *args, weight=weight, rows=n, **kwargs)

        self.patch(cls, name, traced)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        """Plain-dict copy of the counters (JSON-ready)."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "rows": dict(self.rows),
            }


def per_layer(snapshot: dict, units: int) -> dict:
    """The per-layer metric block of a traced run.

    Layer times are milliseconds of self time per unit of work, call
    counts are calls per unit of work, and ``units`` is the total.
    """
    self_s, calls, rows = snapshot["self_s"], snapshot["calls"], snapshot["rows"]
    units = max(units, 1)
    metrics = {
        f"{layer}_ms": {"value": self_s.get(layer, 0.0) * 1000.0 / units, "unit": "ms"}
        for layer in LAYERS
    }
    routing_calls = calls.get("routing", 0)
    metrics["routing_calls"] = {"value": routing_calls / units, "unit": "calls/unit"}
    metrics["routing_rows_per_call"] = {
        "value": rows.get("routing", 0) / max(routing_calls, 1),
        "unit": "rows",
    }
    metrics["store_calls"] = {"value": calls.get("store", 0) / units, "unit": "calls/unit"}
    metrics["units"] = {"value": units, "unit": "count"}
    return metrics


def _demand_rows(args) -> int:
    demand = args[1]
    return int(demand.shape[0]) if getattr(demand, "ndim", 1) == 2 else 1


#: Module-level functions spanned as a layer: (module, function, layer).
FUNCTION_SPANS = (
    ("repro.markets.providers", "materialise_dataset", "markets"),
    ("repro.scenarios.runner", "trace", "traffic"),
    ("repro.sim.engine", "simulate", "sim"),
    ("repro.sim.engine", "simulate_many", "sim"),
)

#: Artifact-store methods spanned as the ``store`` layer.
STORE_METHODS = ("save", "load", "save_simulation", "load_simulation", "save_figure", "load_figure")


def _lookup(module_name: str, attr: str):
    """``module.attr``, or None when a refactor moved or removed it."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None)


def _router_classes():
    """Every loaded ``repro`` class that defines its own routing calls."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for obj in list(vars(module).values()):
            if (
                isinstance(obj, type)
                and obj.__module__ == name
                and not getattr(obj, "_is_protocol", False)
                and ("allocate" in obj.__dict__ or "allocate_batch" in obj.__dict__)
            ):
                yield obj


def install(tracer: LayerTracer) -> LayerTracer:
    """Span every layer boundary below ``entry`` in this process.

    Boundaries are looked up by name; one that a later refactor removed
    is skipped, so the layer map degrades instead of the run failing.
    """
    import repro.experiments  # noqa: F401  (loads every driver's bindings)
    import repro.serve  # noqa: F401
    import repro.sweeps  # noqa: F401

    for module_name, attr, layer in FUNCTION_SPANS:
        function = _lookup(module_name, attr)
        if function is not None:
            tracer.wrap_function(function, layer)

    session = _lookup("repro.sim.session", "RoutingSession")
    if session is not None and "feed" in session.__dict__:
        tracer.wrap_method(session, "feed", "sim", rows=_demand_rows, weighted=True)

    for cls in _router_classes():
        if "allocate" in cls.__dict__:
            tracer.wrap_method(cls, "allocate", "routing", rows=lambda args: 1)
        if "allocate_batch" in cls.__dict__:
            tracer.wrap_method(cls, "allocate_batch", "routing", rows=_demand_rows)

    store = _lookup("repro.artifacts.store", "ArtifactStore")
    for name in STORE_METHODS:
        if store is not None and name in store.__dict__:
            tracer.wrap_method(store, name, "store")
    return tracer
