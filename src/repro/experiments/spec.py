"""``ExperimentSpec``: one experiment as immutable, hashable data.

Everything :func:`repro.experiments.run_experiment` needs to reproduce a
run -- network, traffic (by registry name + config so it pickles), NIC
mode and parameters, horizon, seed, fault plan, observability toggles --
captured in a frozen dataclass with a stable content hash.  The spec is
the unit of work the :class:`~repro.experiments.engine.SweepEngine`
distributes across processes and the key its on-disk result cache uses.

Identity is :meth:`content_hash` (a SHA-256 over the canonical JSON form),
NOT Python's ``hash()``: the hash is independent of ``PYTHONHASHSEED``,
stable across processes and interpreter versions, and excludes the
cosmetic ``label`` so two specs differing only in display label share
cache entries.

Traffic is always a registered :class:`~repro.traffic.TrafficSpec`, so
every spec is plain data; a new workload is added with
:func:`repro.traffic.register_traffic`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..faults import FaultPlan
from ..nic import (
    EXHAUST_POLICIES,
    NIC_MODES,
    CollectiveParams,
    NifdyParams,
    ReorderParams,
)
from ..node import CM5_TIMING, Timing
from ..obs import Observability
from ..sim import DEFAULT_SCHEDULER, scheduler_names
from ..traffic import TrafficSpec


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete, immutable description of one experiment run.

    ``run_cycles`` set: fixed measurement horizon (the Figure 2/3
    throughput methodology).  Unset: run to workload completion bounded by
    ``max_cycles``.  ``label`` is cosmetic (sweep tables); it is excluded
    from :meth:`content_hash`.
    """

    network: str
    traffic: TrafficSpec
    num_nodes: int = 64
    active_nodes: Optional[int] = None
    nic_mode: str = "nifdy"
    nifdy_params: Optional[NifdyParams] = None
    #: Parameters for the ``reorder-*`` NIC modes (bounded reorder window,
    #: Eunomia bitmap, Jain drop-vs-cache); ignored by the other modes.
    reorder_params: Optional[ReorderParams] = None
    #: Collective subsystem: ``barrier="nic"`` offloads barriers/reductions
    #: onto the NIC combining tree; ``None`` (or ``barrier="host"``) keeps
    #: the host-side combine.
    collective_params: Optional[CollectiveParams] = None
    run_cycles: Optional[int] = None
    max_cycles: int = 5_000_000
    seed: int = 0
    #: Event-queue implementation (the "epoch" ring kernel or the "heap"
    #: specification).  Results are bit-identical by construction -- the
    #: scheduler parity suite enforces it -- but the choice is still part
    #: of the spec (and its hash) so a parity regression can never alias
    #: cache entries across kernels.
    kernel: str = DEFAULT_SCHEDULER
    timing: Optional[Timing] = None  # None -> CM5_TIMING
    check_order: bool = True
    drop_prob: float = 0.0
    retx_timeout: int = 1000
    on_exhaust: str = "abandon"
    max_retries: int = 50
    fault_plan: Optional[FaultPlan] = None
    watchdog_cycles: int = 200_000
    network_overrides: Optional[Dict] = None
    observe: Optional[Observability] = field(default=None, compare=False)
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.network, str) or not self.network:
            raise ValueError("spec needs a network name")
        if not isinstance(self.traffic, TrafficSpec):
            raise TypeError(
                "spec.traffic must be a TrafficSpec, not "
                f"{type(self.traffic).__name__}; register new traffic "
                "with repro.traffic.register_traffic"
            )
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if self.kernel not in scheduler_names():
            raise ValueError(
                f"unknown kernel {self.kernel!r}; choose from "
                f"{scheduler_names()}"
            )
        if self.nic_mode not in NIC_MODES:
            raise ValueError(
                f"unknown nic_mode {self.nic_mode!r}; choose from "
                f"{tuple(NIC_MODES)}"
            )
        if self.on_exhaust not in EXHAUST_POLICIES:
            raise ValueError(
                f"unknown on_exhaust {self.on_exhaust!r}; choose from "
                f"{EXHAUST_POLICIES}"
            )

    # ------------------------------------------------------------ ergonomics
    @property
    def resolved_timing(self) -> Timing:
        return self.timing if self.timing is not None else CM5_TIMING

    def replace(self, **changes) -> "ExperimentSpec":
        """A copy with fields changed (specs are frozen)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        horizon = (
            f"{self.run_cycles} cycles" if self.run_cycles is not None
            else "to completion"
        )
        return (
            f"{self.network}/{self.traffic.name}/{self.nic_mode} "
            f"n={self.num_nodes} seed={self.seed} ({horizon})"
        )

    # ---------------------------------------------------------- serialisation
    def to_dict(self) -> Dict:
        """Canonical JSON-able form."""
        return {
            "network": self.network,
            "traffic": self.traffic.to_dict(),
            "num_nodes": self.num_nodes,
            "active_nodes": self.active_nodes,
            "nic_mode": self.nic_mode,
            "nifdy_params": None if self.nifdy_params is None
            else dataclasses.asdict(self.nifdy_params),
            "reorder_params": None if self.reorder_params is None
            else dataclasses.asdict(self.reorder_params),
            "collective_params": None if self.collective_params is None
            else dataclasses.asdict(self.collective_params),
            "run_cycles": self.run_cycles,
            "max_cycles": self.max_cycles,
            "seed": self.seed,
            "kernel": self.kernel,
            "timing": None if self.timing is None
            else dataclasses.asdict(self.timing),
            "check_order": self.check_order,
            "drop_prob": self.drop_prob,
            "retx_timeout": self.retx_timeout,
            "on_exhaust": self.on_exhaust,
            "max_retries": self.max_retries,
            "fault_plan": None if self.fault_plan is None
            else self.fault_plan.to_dict(),
            "watchdog_cycles": self.watchdog_cycles,
            "network_overrides": None if self.network_overrides is None
            else dict(self.network_overrides),
            "observe": None if self.observe is None else {
                "events": self.observe.events,
                "keep_events": self.observe.keep_events,
                "sample_interval": self.observe.sample_interval,
                "trace": self.observe.trace,
                "trace_max_packets": self.observe.trace_max_packets,
                "profile": self.observe.profile,
                "validate": self.observe.validate,
                "validate_strict": self.observe.validate_strict,
            },
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentSpec":
        kwargs = dict(data)
        kwargs["traffic"] = TrafficSpec.from_dict(kwargs["traffic"])
        if kwargs.get("nifdy_params") is not None:
            kwargs["nifdy_params"] = NifdyParams(**kwargs["nifdy_params"])
        if kwargs.get("reorder_params") is not None:
            kwargs["reorder_params"] = ReorderParams(**kwargs["reorder_params"])
        if kwargs.get("collective_params") is not None:
            kwargs["collective_params"] = CollectiveParams(
                **kwargs["collective_params"]
            )
        if kwargs.get("timing") is not None:
            kwargs["timing"] = Timing(**kwargs["timing"])
        if kwargs.get("fault_plan") is not None:
            kwargs["fault_plan"] = FaultPlan.from_dict(kwargs["fault_plan"])
        if kwargs.get("observe") is not None:
            kwargs["observe"] = Observability(**kwargs["observe"])
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """Stable identity: SHA-256 of the canonical dict, minus the
        cosmetic ``label`` and the ``observe`` toggles (instrumentation
        watches a run, it does not change its results)."""
        payload = self.to_dict()
        payload.pop("label", None)
        payload.pop("observe", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
