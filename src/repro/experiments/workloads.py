"""Ready-made traffic specs for the paper's workloads.

Each helper returns a :class:`~repro.traffic.TrafficSpec`: still callable
with the classic factory signature ``(node, num_nodes, rng_factory,
exploit_inorder)``, but also plain data -- it pickles across processes,
serialises into :class:`~repro.experiments.spec.ExperimentSpec` JSON, and
hashes stably for the sweep engine's result cache.
"""

from __future__ import annotations

from typing import Optional

from ..sim import DEFAULT_SCHEDULER
from ..traffic import (
    AllReduceConfig,
    CShiftConfig,
    Em3dConfig,
    HotSpotConfig,
    IncastConfig,
    RadixSortConfig,
    RpcFanoutConfig,
    SyntheticConfig,
    TrafficSpec,
)


def heavy_synthetic(config: Optional[SyntheticConfig] = None) -> TrafficSpec:
    """Section 4.1 heavy traffic: all nodes send, lengths U[1,5]."""
    return TrafficSpec("heavy", config)


def light_synthetic(config: Optional[SyntheticConfig] = None) -> TrafficSpec:
    """Section 4.1 light traffic: 1/3 senders, long-message tail,
    non-responsive periods."""
    return TrafficSpec("light", config)


def cshift(config: Optional[CShiftConfig] = None) -> TrafficSpec:
    """Section 4.3 cyclic shift (all-to-all)."""
    return TrafficSpec("cshift", config)


def em3d(config: Optional[Em3dConfig] = None) -> TrafficSpec:
    """Section 4.4 EM3D (light- or heavy-communication parameterisation)."""
    return TrafficSpec("em3d", config)


def radix_sort(config: Optional[RadixSortConfig] = None) -> TrafficSpec:
    """Section 4.5 radix sort (scan and optional coalesce phases)."""
    return TrafficSpec("radix", config)


def hotspot(config: Optional[HotSpotConfig] = None) -> TrafficSpec:
    """Hot-spot traffic (Section 1 / Section 5's dynamic bandwidth matching)."""
    return TrafficSpec("hotspot", config)


def incast(config: Optional[IncastConfig] = None) -> TrafficSpec:
    """Synchronised many-to-one bursts (the datacenter incast pattern)."""
    return TrafficSpec("incast", config)


def rpc_fanout(config: Optional[RpcFanoutConfig] = None) -> TrafficSpec:
    """Partition-aggregate RPC: scatter requests, gather the reply burst."""
    return TrafficSpec("rpc", config)


def allreduce(config: Optional[AllReduceConfig] = None) -> TrafficSpec:
    """Self-verifying allreduce rounds with background traffic (the
    NIC-offloaded collective benchmark workload)."""
    return TrafficSpec("allreduce", config)


def perf_reference_spec(
    network: str = "fattree",
    num_nodes: int = 64,
    run_cycles: int = 20_000,
    seed: int = 11,
    kernel: str = DEFAULT_SCHEDULER,
    observe: Optional["Observability"] = None,
) -> "ExperimentSpec":
    """The fixed-seed workload ``repro perf`` and the kernel benchmark run.

    Heavy synthetic traffic on a fat tree under the NIFDY NIC -- the
    densest event mix the simulator produces (every node sending, acks
    piggybacking, links saturated) -- so its events-per-second figure is a
    fair proxy for kernel overhead.  Keep the defaults stable: recorded
    ``BENCH_summary.json`` numbers are only comparable across commits if
    the workload never moves.
    """
    from ..obs import Observability
    from .spec import ExperimentSpec

    if observe is None:
        observe = Observability(profile=True, events=True)
    return ExperimentSpec(
        network=network,
        traffic=heavy_synthetic(),
        num_nodes=num_nodes,
        run_cycles=run_cycles,
        seed=seed,
        kernel=kernel,
        observe=observe,
        label=f"perf-ref/{kernel}",
    )
