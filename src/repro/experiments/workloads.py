"""Ready-made traffic specs for the paper's workloads.

Each helper returns a :class:`~repro.traffic.TrafficSpec`: plain data that
pickles across processes, serialises into
:class:`~repro.experiments.spec.ExperimentSpec` JSON, and hashes stably for
the sweep engine's result cache.
"""

from __future__ import annotations

from typing import Optional

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
