"""``repro.obs``: the unified instrumentation layer.

One import point for everything that *watches* a run without being part of
it: the typed protocol :class:`EventBus` (near-zero overhead when detached),
the periodic :class:`StateSampler` (Figure-5-style time series), and the
exporters (Chrome-trace/Perfetto and structured metrics JSON).  The kernel
self-profiler lives with the kernel (:class:`repro.sim.KernelProfile`);
:class:`Observability` is the one-stop configuration object
``run_experiment(observe=...)`` consumes.

This package deliberately imports nothing from ``repro.metrics``,
``repro.networks`` or ``repro.nic`` -- those layers import *us* for the
event taxonomy, so the dependency arrow must point one way.
"""

from dataclasses import dataclass, field
from typing import Optional

from .events import EventBus, EventKind, ObsEvent
from .export import chrome_trace, metrics_json, write_json
from .sampler import StateSampler


@dataclass
class Observability:
    """What to instrument on one experiment run.

    Construct with the knobs you want and pass to
    ``run_experiment(observe=...)``; the runner fills in the live handles
    (``bus``, ``sampler``, ``kernel_profile``, ``monitor``) which the
    exporters then read; per-packet traces live on the run's collector
    (``result.metrics.traces``).  A run with ``observe=None`` (the
    default) pays only a per-emission-site ``is None`` check.
    """

    #: Attach an :class:`EventBus` to NICs, links, routers, and the
    #: fault injector (event *counting* is always on once attached).
    events: bool = True
    #: Buffer up to this many full event records on the bus (0 = count only).
    keep_events: int = 0
    #: Snapshot per-node/per-link state every N cycles (None = off).
    sample_interval: Optional[int] = None
    #: Have the collector record per-packet lifecycles (required for
    #: Chrome-trace export).
    trace: bool = False
    #: Packet-record cap for those traces (memory bound on huge runs).
    trace_max_packets: int = 200_000
    #: Time the event loop: events/sec + per-handler wall clock.
    profile: bool = False
    #: Attach a :class:`repro.validate.InvariantMonitor` that checks the
    #: protocol's guarantees (exactly-once, in-order, resource bounds, no
    #: silent loss) live and at end-of-run; violations come back as
    #: ``result.violations`` / ``observe.monitor.violations``.
    validate: bool = False
    #: ``validate`` escalation: raise :class:`repro.validate.
    #: InvariantViolation` at the offending cycle instead of collecting.
    validate_strict: bool = False

    # ---- live handles, filled by the runner --------------------------------
    bus: Optional[EventBus] = field(default=None, repr=False)
    sampler: Optional[StateSampler] = field(default=None, repr=False)
    kernel_profile: Optional[object] = field(default=None, repr=False)
    monitor: Optional[object] = field(default=None, repr=False)  # InvariantMonitor

    @property
    def enabled(self) -> bool:
        return bool(
            self.events or self.sample_interval or self.trace
            or self.profile or self.validate
        )


__all__ = [
    "EventBus",
    "EventKind",
    "ObsEvent",
    "Observability",
    "StateSampler",
    "chrome_trace",
    "metrics_json",
    "write_json",
]
