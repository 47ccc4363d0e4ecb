"""Scheduler parity: every registered kernel must be indistinguishable
from the heap baseline.

A non-heap scheduler (the bucket calendar ring, the epoch token-run
kernel) is only allowed to exist because it changes *nothing* observable:
same-cycle events fire in scheduling order, cross-cycle events fire in
time order, and every workload produces bit-identical results.  This
suite enforces that the hard way -- it runs every registered traffic
workload under every kernel in the scheduler registry and diffs the full
structured metrics JSON (totals, latency histograms, per-NIC counters,
protocol event counts) byte-for-byte against heap.  Any divergence,
however small, is a kernel bug, never noise: the simulator is
deterministic by construction.
"""

import json

import pytest

from repro.experiments import ExperimentSpec, run_experiment
from repro.nic import CollectiveParams
from repro.obs import Observability, metrics_json
from repro.sim import scheduler_names
from repro.traffic import (
    AllReduceConfig,
    CrashPointConfig,
    CShiftConfig,
    Em3dConfig,
    HotSpotConfig,
    IncastConfig,
    PairStreamConfig,
    RadixSortConfig,
    RpcFanoutConfig,
    TrafficSpec,
    traffic_names,
)

NODES = 16

#: Every registered workload, sized to finish in a couple of seconds on a
#: 16-node fat tree while still exercising barriers, acks, retransmission
#: timers, and multi-phase traffic -- the full event-type mix.
WORKLOADS = {
    "heavy": dict(traffic=TrafficSpec("heavy"), run_cycles=3000),
    "light": dict(traffic=TrafficSpec("light"), run_cycles=3000),
    "cshift": dict(
        traffic=TrafficSpec("cshift", CShiftConfig(words_per_phase=24, phases=4)),
    ),
    "em3d": dict(
        traffic=TrafficSpec("em3d", Em3dConfig(n_nodes=4, d_nodes=3, iterations=2)),
    ),
    "radix": dict(
        traffic=TrafficSpec("radix", RadixSortConfig(buckets=32, keys_per_processor=8)),
    ),
    "hotspot": dict(
        traffic=TrafficSpec("hotspot", HotSpotConfig(packets_per_node=20)),
    ),
    "pairstream": dict(
        traffic=TrafficSpec("pairstream", PairStreamConfig(packets=30)),
    ),
    "incast": dict(
        traffic=TrafficSpec("incast", IncastConfig(rounds=2, packets_per_round=4)),
    ),
    "rpc": dict(
        traffic=TrafficSpec("rpc", RpcFanoutConfig(rounds=2, fanout=4, reply_packets=2)),
    ),
    # NIC-offloaded combining tree: barriers/reductions become protocol
    # traffic, the collective-parity case the offload feature demands.
    "allreduce": dict(
        traffic=TrafficSpec("allreduce", AllReduceConfig(rounds=3)),
        collective_params=CollectiveParams(barrier="nic"),
    ),
    # Disarmed (after_packets == packets): runs as a clean pair stream.
    "crashpoint": dict(
        traffic=TrafficSpec(
            "crashpoint", CrashPointConfig(packets=30, after_packets=30)
        ),
    ),
}

#: Every kernel that must match the heap baseline.
CHALLENGERS = tuple(k for k in scheduler_names() if k != "heap")


def test_parity_suite_covers_every_registered_workload():
    """A workload added to the registry must be added here too."""
    assert set(WORKLOADS) == set(traffic_names())


def test_parity_suite_covers_every_registered_kernel():
    """A scheduler added to the registry is automatically matrixed here."""
    assert "heap" in scheduler_names()
    assert CHALLENGERS  # at least bucket and epoch


def _canonical_metrics(name: str, kernel: str) -> str:
    cfg = WORKLOADS[name]
    spec = ExperimentSpec(
        network="fattree",
        traffic=cfg["traffic"],
        num_nodes=NODES,
        run_cycles=cfg.get("run_cycles"),
        max_cycles=300_000,
        seed=7,
        kernel=kernel,
        collective_params=cfg.get("collective_params"),
        observe=Observability(events=True),
    )
    result = run_experiment(spec)
    metrics = metrics_json(result)
    metrics.pop("self_profile", None)
    return json.dumps(metrics, sort_keys=True)


@pytest.mark.parametrize("kernel", CHALLENGERS)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_kernel_metrics_byte_identical_to_heap(name, kernel):
    heap = _canonical_metrics(name, "heap")
    challenger = _canonical_metrics(name, kernel)
    assert challenger == heap, (
        f"workload {name!r}: {kernel} scheduler diverged from the heap "
        "baseline (metrics JSON not byte-identical)"
    )


def _canonical_spray_metrics(kernel: str) -> str:
    """Incast on the spraying fabric under a reorder receiver: the kernel
    must stay bit-identical even when route choice, jitter, and the
    retransmission machinery all draw from seeded RNG streams."""
    spec = ExperimentSpec(
        network="fattree-spray",
        traffic=TrafficSpec("incast", IncastConfig(rounds=2, packets_per_round=4)),
        num_nodes=NODES,
        nic_mode="reorder-bitmap",
        max_cycles=300_000,
        seed=7,
        drop_prob=0.01,
        network_overrides={"path_skew": 4},
        kernel=kernel,
        observe=Observability(events=True),
    )
    result = run_experiment(spec)
    metrics = metrics_json(result)
    metrics.pop("self_profile", None)
    return json.dumps(metrics, sort_keys=True)


@pytest.mark.parametrize("kernel", CHALLENGERS)
def test_spraying_fabric_parity(kernel):
    assert _canonical_spray_metrics(kernel) == _canonical_spray_metrics("heap")


def _canonical_spray_heavy_metrics(kernel: str) -> str:
    """Heavy traffic on the spraying fabric under the plain NIC: two VCs
    per net keep same-pair packets in flight at once, so a token run's
    delivery regularly re-enters its own link, closes the run and opens
    the next packet's."""
    spec = ExperimentSpec(
        network="fattree-spray",
        traffic=TrafficSpec("heavy"),
        num_nodes=NODES,
        nic_mode="plain",
        run_cycles=1000,
        seed=1,
        kernel=kernel,
        observe=Observability(events=True),
    )
    result = run_experiment(spec)
    metrics = metrics_json(result)
    metrics.pop("self_profile", None)
    return json.dumps(metrics, sort_keys=True)


@pytest.mark.parametrize("kernel", CHALLENGERS)
def test_spraying_fabric_heavy_parity(kernel):
    heap = _canonical_spray_heavy_metrics("heap")
    assert json.loads(heap)["totals"]["delivered"] == 113
    assert _canonical_spray_heavy_metrics(kernel) == heap


def _canonical_mesh_metrics(kernel: str) -> str:
    """A torus (cyclic credit chains, VC-class dateline routing) under the
    plain NIC: exercises the single-VC-per-direction links where epoch
    token runs cover almost all flit traffic."""
    spec = ExperimentSpec(
        network="torus2d",
        traffic=TrafficSpec("hotspot", HotSpotConfig(packets_per_node=12)),
        num_nodes=NODES,
        nic_mode="plain",
        max_cycles=300_000,
        seed=11,
        kernel=kernel,
        observe=Observability(events=True),
    )
    result = run_experiment(spec)
    metrics = metrics_json(result)
    metrics.pop("self_profile", None)
    return json.dumps(metrics, sort_keys=True)


@pytest.mark.parametrize("kernel", CHALLENGERS)
def test_torus_parity(kernel):
    assert _canonical_mesh_metrics(kernel) == _canonical_mesh_metrics("heap")


def test_long_window_epoch_smoke():
    """A >=200k-cycle window runs to completion under the epoch kernel and
    matches heap exactly -- the 'previously truncated' configuration class
    the token runs were built to unlock."""
    results = {}
    for kernel in ("heap", "epoch"):
        spec = ExperimentSpec(
            network="fattree",
            traffic=TrafficSpec("heavy"),
            num_nodes=NODES,
            run_cycles=200_000,
            seed=3,
            kernel=kernel,
        )
        result = run_experiment(spec)
        metrics = metrics_json(result)
        metrics.pop("self_profile", None)
        results[kernel] = json.dumps(metrics, sort_keys=True)
        assert result.cycles >= 200_000
    assert results["epoch"] == results["heap"]
