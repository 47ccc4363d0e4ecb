"""The benchmark's four workloads, as generated ``ExperimentSpec``s.

The simulator only ever sees the specs built here.  The seed is the
benchmark's ``--seed`` argument; no spec pins ``kernel=``, so every run
uses the scheduler a user gets by default.  Inside the simulated machine
traffic is closed-loop: each of the 64 simulated processors issues its
next send when its NIC accepts the previous one, under backpressure.

``tiny=True`` shrinks every workload to a fraction of a second for the
benchmark's own tests; the shape (network, NIC, instrumentation, engine)
stays the same.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from repro.experiments import (
    ExperimentSpec,
    cshift,
    heavy_synthetic,
    nifdy_param_specs,
)
from repro.nic import NifdyParams
from repro.obs import Observability
from repro.traffic import CShiftConfig

NODES = 64


@dataclass(frozen=True)
class Workload:
    """What one repetition runs: one spec directly, or a grid through the
    sweep engine with ``jobs`` pool workers."""

    name: str
    specs: List[ExperimentSpec]
    jobs: int = 0  # 0: run_experiment(specs[0]) in-process

    @property
    def sweep(self) -> bool:
        return self.jobs > 0


def _observe(profile: bool, **attached) -> Optional[Observability]:
    """The spec's instrumentation.  Tracing adds only the kernel profile
    (``events`` defaults to on in ``Observability``, so it is switched off
    explicitly where the workload attaches no bus)."""
    if not attached and not profile:
        return None
    attached.setdefault("events", False)
    return Observability(profile=profile, **attached)


def heavy_fattree(seed: int, trace: bool, tiny: bool) -> Workload:
    spec = ExperimentSpec(
        network="fattree",
        traffic=heavy_synthetic(),
        num_nodes=NODES,
        nic_mode="nifdy",
        run_cycles=300 if tiny else 5_000,
        seed=seed,
        observe=_observe(trace),
    )
    return Workload("heavy_fattree", [spec])


def cshift_cm5(seed: int, trace: bool, tiny: bool) -> Workload:
    spec = ExperimentSpec(
        network="cm5",
        traffic=cshift(CShiftConfig(words_per_phase=4 if tiny else 24)),
        num_nodes=NODES,
        active_nodes=32,
        nic_mode="nifdy",
        max_cycles=10_000_000,
        seed=seed,
        observe=_observe(trace),
    )
    return Workload("cshift_cm5", [spec])


def lossy_spray_observed(seed: int, trace: bool, tiny: bool) -> Workload:
    spec = ExperimentSpec(
        network="fattree-spray",
        traffic=heavy_synthetic(),
        num_nodes=NODES,
        nic_mode="reorder-bitmap",
        drop_prob=0.001,
        run_cycles=300 if tiny else 6_000,
        seed=seed,
        observe=_observe(
            trace, events=True, validate=True, sample_interval=500,
            trace=True,
        ),
    )
    return Workload("lossy_spray_observed", [spec])


def param_sweep(seed: int, trace: bool, tiny: bool) -> Workload:
    grid = [
        NifdyParams(opt_size=opt, pool_size=pool)
        for opt in (2, 4, 8) for pool in (4, 8)
    ]
    specs = nifdy_param_specs(
        "fattree", grid[:2] if tiny else grid, num_nodes=NODES,
        run_cycles=200 if tiny else 1_500, seed=seed,
        combine_light_and_heavy=False,
    )
    observe = _observe(trace)
    specs = [spec.replace(observe=observe) for spec in specs]
    return Workload("param_sweep", specs, jobs=len(os.sched_getaffinity(0)))


WORKLOADS = {
    make.__name__: make
    for make in (heavy_fattree, cshift_cm5, lossy_spray_observed, param_sweep)
}


def build(name: str, seed: int, trace: bool = False, tiny: bool = False,
          kernel: Optional[str] = None) -> Workload:
    """The workload ``name`` for ``seed``.  ``kernel`` is only for
    recording the ``heap`` reference digest; measured runs leave it unset."""
    workload = WORKLOADS[name](seed, trace, tiny)
    if kernel is not None:
        workload = Workload(
            workload.name,
            [spec.replace(kernel=kernel) for spec in workload.specs],
            workload.jobs,
        )
    return workload
