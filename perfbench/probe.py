"""Hooks the benchmark installs around the simulator's public entry points.

Nothing under ``src/`` changes; everything here wraps from the outside,
before the run assembles any object, so bound methods cached at
construction are the wrapped ones.

* :class:`Probe` wraps the runner's per-point function and every
  scheduler's ``run_until``.  It records when a point's first simulated
  cycle starts (for ``setup_s``), which scheduler actually ran, and, after
  the point, a :func:`point_record` with the digest and the counters.
  Sweep pool workers are forked from the process that installed the probe,
  so they carry the hooks and send their records back over a queue.
* :class:`Tracer` (the ``--trace 1`` run only) keeps a layer stack.  Each
  wrapped entry point opens a span of its layer; a layer's self time is its
  spans minus the spans of the layers it called.  Event handlers are timed
  by the kernel's own :class:`~repro.sim.kernel.KernelProfile`; the tracer
  rolls each handler's time up to the layer of the handler's module.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro
from repro.experiments import runner
from repro.obs import metrics_json
from repro.routers import Router
from repro.sim import resolve_scheduler, scheduler_names
from repro.sim.kernel import KernelProfile

#: Layers that get spans, named after their package under ``src/repro/``.
#: ``sim`` is timed by the kernel profile instead; ``faults``, ``farm``,
#: ``report`` and ``analysis`` are on no measured run's path.
TRACED_LAYERS = (
    "experiments", "networks", "links", "routers", "nic", "node",
    "traffic", "packets", "metrics", "obs", "validate",
)

#: Layers whose objects are reached through callbacks they hand out
#: (collector hooks, bus subscribers, sampler timers), which no attribute
#: name in the caller reveals: every method of their classes is wrapped.
OBSERVER_LAYERS = ("metrics", "obs", "validate")


def layer_of(module: Optional[str]) -> str:
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return parts[1]
    return "other"


def digest(doc: Dict) -> str:
    """SHA-256 of the metrics JSON, minus the wall-clock ``self_profile``."""
    doc = {key: value for key, value in doc.items() if key != "self_profile"}
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bucket_percentile(hist: Dict, fraction: float) -> float:
    """Percentile of a power-of-two bucket histogram, interpolated linearly
    inside the bucket that holds it and capped at the exact maximum.

    The collector's own ``percentile`` returns the bucket's upper edge, so
    a p99 that sits near a power of two reads 1023 on one seed and 2047 on
    the next; interpolating keeps the figure continuous in the data.
    """
    total = hist["count"]
    if not total:
        return 0.0
    target = fraction * total
    seen = 0
    for row in hist["buckets"]:
        low, high = (int(x) for x in row["range"].split("-"))
        count = row["count"]
        if seen + count >= target:
            value = low + (high + 1 - low) * (target - seen) / count
            return float(min(value, hist["max"]))
        seen += count
    return float(hist["max"])


def point_record(spec, result, point: Dict) -> Dict:
    """Everything the benchmark keeps from one finished point (plain data,
    small enough to cross the sweep's result queue)."""
    doc = metrics_json(result)
    net = result.network_obj
    links = net.links
    procs = result.processors
    nics = doc["nics"]
    record = {
        "spec_hash": spec.content_hash(),
        "digest": digest(doc),
        "completed": result.completed,
        "violations": len(result.violations),
        "order_violations": result.order_violations,
        "cycles": result.cycles,
        "delivered": result.delivered,
        "latency_p50": bucket_percentile(doc["latency"]["total"], 0.50),
        "latency_p99": bucket_percentile(doc["latency"]["total"], 0.99),
        "counts": {
            "flits": sum(link.flits_carried for link in links),
            "link_busy": sum(link.busy_cycles for link in links),
            "link_capacity": len(links) * result.cycles,
            "dropped": sum(link.packets_dropped for link in links),
            # Flits that entered a router input unit: the routers' work.
            "flits_forwarded": sum(
                link.flits_carried for link in links
                if isinstance(link.sink, Router)
            ),
            "proc_busy": sum(p.busy_cycles for p in procs),
            "proc_capacity": len(procs) * result.cycles,
            "events_emitted": sum(doc.get("events", {}).values()),
            **{f"nic.{name}": value for name, value in nics.items()},
        },
    }
    record.update(point)
    profile = result.obs.kernel_profile if result.obs is not None else None
    if profile is not None:
        handlers = sum(seconds for _, seconds in profile.by_handler.values())
        record["counts"]["events"] = profile.events
        record["times"]["dispatch_self_s"] = profile.loop_seconds - handlers
    return record


class Tracer:
    """Layer spans with a stack, so self time excludes callees.

    A frame is ``[child_seconds, mark]``.  A span adds its elapsed time to
    its parent's ``child_seconds``.  Handlers run straight from the kernel
    loop, so their spans are reconstructed when the kernel profile notes
    them: the handler's layer gets the handler time minus the spans opened
    inside it (``child_seconds - mark`` of the enclosing ``run_until``
    frame).
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.stack: List[List[float]] = [[0.0, 0.0]]
        self.active = False
        self.loop_s = 0.0
        self.loop_accounted_s = 0.0
        self._layers: Dict[str, str] = {}

    def total(self) -> float:
        return sum(self.self_s.values())

    def span(self, fn: Callable, layer: str) -> Callable:
        stack = self.stack
        self_s = self.self_s
        self_s.setdefault(layer, 0.0)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                stack[-1][0] += elapsed

        traced.__perfbench_layer__ = layer
        return traced

    def hand_over(self, init: Callable, layer: str) -> Callable:
        """A constructor whose function arguments from another layer (a
        network's route function handed to its routers) become spans of
        their own layer."""

        def construct(obj, *args, **kwargs):
            args = [self._callback(arg, layer) for arg in args]
            kwargs = {k: self._callback(v, layer) for k, v in kwargs.items()}
            return init(obj, *args, **kwargs)

        return functools.update_wrapper(construct, init)

    def _callback(self, value, layer: str):
        if not (inspect.isfunction(value) or inspect.ismethod(value)):
            return value
        owner = layer_of(value.__module__)
        if (owner == layer or owner not in TRACED_LAYERS
                or hasattr(value, "__perfbench_layer__")):
            return value
        return self.span(value, owner)

    def on_handler(self, fn: Callable, seconds: float) -> None:
        module = getattr(fn, "__module__", None)
        layer = self._layers.get(module)
        if layer is None:
            layer = self._layers[module] = layer_of(module)
            self.self_s.setdefault(layer, 0.0)
        frame = self.stack[-1]
        self.self_s[layer] += seconds - (frame[0] - frame[1])
        frame[0] = frame[1] = frame[1] + seconds

    def loop(self, run_until: Callable, sim, cycle: int) -> None:
        """One traced ``run_until``: a frame whose children are the
        handlers, plus the bookkeeping for the accounting check."""
        before = self.total()
        frame = [0.0, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            run_until(sim, cycle)
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            self.stack[-1][0] += elapsed
            self.loop_s += elapsed
            self.loop_accounted_s += self.total() - before

    def install(self) -> List[str]:
        """Wrap the cross-layer entry points; returns their names.

        An entry point of layer L is a method of an L class whose name some
        other layer's source uses as an attribute (``link.notify_flit_ready``,
        a cached ``sink.accept_flit``), the constructor of an L class that
        another layer imports, or an L function another layer imports.
        """
        original_note = KernelProfile.note

        def note(profile, fn, seconds):
            original_note(profile, fn, seconds)
            self.on_handler(fn, seconds)

        KernelProfile.note = note

        modules = _repro_modules()
        foreign: Dict[str, set] = {layer: set() for layer in TRACED_LAYERS}
        for module in modules:
            names = _attribute_names(module)
            for layer in TRACED_LAYERS:
                if layer != layer_of(module.__name__):
                    foreign[layer] |= names
        imported = {
            id(value)
            for module in modules
            for value in vars(module).values()
            if getattr(value, "__module__", None)
            and layer_of(value.__module__) != layer_of(module.__name__)
        }

        wrapped: List[str] = []
        spans: Dict[int, Callable] = {}
        classes = set()

        def wrap(owner, name, fn, layer):
            if id(fn) not in spans:
                spans[id(fn)] = self.span(fn, layer)
            setattr(owner, name, spans[id(fn)])
            wrapped.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{name}")

        for module in modules:
            layer = layer_of(module.__name__)
            for name, value in list(vars(module).items()):
                value_layer = layer_of(getattr(value, "__module__", None))
                if value_layer not in TRACED_LAYERS:
                    continue
                if inspect.isfunction(value) and not _is_generator(value):
                    if value_layer != layer or (
                        value.__module__ == module.__name__
                        and name in foreign[layer]
                    ):
                        wrap(module, name, value, value_layer)
                elif (inspect.isclass(value) and value.__module__ == module.__name__
                      and id(value) not in classes):
                    classes.add(id(value))  # aliases name a class twice
                    everything = layer in OBSERVER_LAYERS
                    for attr, member in list(vars(value).items()):
                        if not inspect.isfunction(member) or _is_generator(member):
                            continue
                        if attr in ("__init__", "__call__"):
                            chosen = everything or id(value) in imported
                        else:
                            chosen = not attr.startswith("__") and (
                                everything or attr in foreign[layer]
                            )
                        if chosen and attr == "__init__":
                            member = self.hand_over(member, layer)
                        if chosen:
                            wrap(value, attr, member, layer)
        return wrapped

    def snapshot(self) -> Dict[str, float]:
        return dict(self.self_s, loop_s=self.loop_s,
                    loop_accounted_s=self.loop_accounted_s)


def _is_generator(fn) -> bool:
    return inspect.isgeneratorfunction(fn) or inspect.iscoroutinefunction(fn)


def _repro_modules() -> List:
    """Every module of the traced layers (imported, so all are patched)."""
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of(info.name) in TRACED_LAYERS + ("sim",):
            modules.append(importlib.import_module(info.name))
    return modules


def _attribute_names(module) -> set:
    """Attribute names a module's source reads off objects other than
    ``self``/``cls``: the methods it may call on another layer's objects."""
    source = Path(module.__file__).read_text()
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and not (
            isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
        ):
            names.add(node.attr)
    return names


class Probe:
    """Per-point hooks: first-cycle time, scheduler name, point records.

    ``sink(record)`` receives each finished point's record.  Without a
    sink, ``(spec, result, point)`` goes to ``deferred`` instead, so an
    in-process run computes its record after the timed region.
    """

    def __init__(self, sink: Optional[Callable[[Dict], None]] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.sink = sink
        self.tracer = tracer
        self.deferred: List = []
        self._point: Optional[Dict] = None

    def install(self) -> None:
        tracer = self.tracer
        run_spec = runner._run_spec
        if tracer is not None:
            run_spec = tracer.span(run_spec, "experiments")

        def hooked_run_spec(spec):
            point = self._point = {
                "_entered": time.perf_counter(), "first_cycle_at": None,
            }
            if tracer is not None:
                before = tracer.snapshot()
                tracer.active = True
            try:
                result = run_spec(spec)
            finally:
                if tracer is not None:
                    tracer.active = False
            point["wall_s"] = time.perf_counter() - point.pop("_entered")
            if tracer is not None:
                after = tracer.snapshot()
                point["times"] = {
                    key: after[key] - before.get(key, 0.0) for key in after
                }
            else:
                point["times"] = {}
            self._point = None
            if self.sink is None:
                self.deferred.append((spec, result, point))
            else:
                self.sink(point_record(spec, result, point))
            return result

        runner._run_spec = hooked_run_spec
        for name in scheduler_names():
            cls = resolve_scheduler(name)
            if "run_until" in vars(cls):
                cls.run_until = self._wrap_run_until(cls.run_until)

    def _wrap_run_until(self, run_until: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(run_until)
        def timed_run_until(sim, cycle):
            point = self._point
            if point is not None and point["first_cycle_at"] is None:
                # Wall clock, so the parent process can subtract its own
                # spawn time; the perf counter times the assembly.
                point["first_cycle_at"] = time.time()
                point["assembly_s"] = time.perf_counter() - point["_entered"]
                point["kernel"] = sim.scheduler
            if tracer is not None and tracer.active:
                return tracer.loop(run_until, sim, cycle)
            return run_until(sim, cycle)

        return timed_run_until
