"""Measured network characteristics (Table 3, left half).

For each topology we report what the paper tabulates: node count, network
volume, bisection bandwidth, hop statistics, and the fitted uncontended
latency formula T_lat(d) = a*d + b -- measured by injecting lone probe
packets between node pairs on an otherwise idle network and regressing
head latency on hop count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..networks import build_network
from ..nic import PlainNIC
from ..packets import FLIT_BYTES, Packet, PacketKind, REQUEST_NET
from ..sim import RngFactory, Simulator


@dataclass
class NetworkCharacteristics:
    """One row of Table 3 (left half)."""

    name: str
    num_nodes: int
    volume_words_per_node: float
    bisection_bytes_per_cycle: float
    avg_hops: float
    max_hops: int
    latency_slope: float      # a in T_lat(d) = a*d + b
    latency_intercept: float  # b
    delivers_in_order: bool

    def t_lat(self, d: float) -> float:
        return self.latency_slope * d + self.latency_intercept

    def formula(self) -> str:
        return f"T_lat(d) = {self.latency_slope:.1f}*d + {self.latency_intercept:.1f}"


def _probe_latency(
    network_name: str, src: int, dst: int, num_nodes: int, packet_words: int
) -> Tuple[int, int]:
    """(hops, head latency) for one probe packet on an idle network."""
    sim = Simulator()
    net = build_network(network_name, sim, num_nodes, rng=RngFactory(7).stream("r"))
    nics = net.attach_nics(lambda node: PlainNIC(sim, node))
    packet = Packet(
        src=src,
        dst=dst,
        kind=PacketKind.SCALAR,
        size_bytes=packet_words * FLIT_BYTES,
        logical_net=REQUEST_NET,
    )
    start = sim.now
    assert nics[src].try_send(packet)
    arrival = {}

    def poll():
        got = nics[dst].receive()
        if got is not None:
            arrival["cycle"] = sim.now
            nics[dst].accepted(got)
        else:
            sim.schedule(1, poll)

    sim.schedule(1, poll)
    sim.run_until(100_000)
    if "cycle" not in arrival:
        raise RuntimeError(
            f"probe {src}->{dst} never arrived on {network_name}"
        )
    hops = net.min_hops(src, dst)
    # Head latency: subtract the tail streaming time already included in the
    # arrival of the last flit at the destination (packet assembled on tail).
    return hops, arrival["cycle"] - start


def measure_latency_fit(
    network_name: str,
    num_nodes: int = 64,
    packet_words: int = 8,
    max_probes: int = 24,
) -> Tuple[float, float]:
    """Fit T_arrival(d) = a*d + b over probe packets at varied distances.

    The measured value is tail-arrival latency of a ``packet_words`` packet,
    the quantity that bounds the scalar-mode round trip."""
    import numpy as np  # only this fit needs it; keep it off the run path

    rng = np.random.default_rng(11)
    pairs = set()
    attempts = 0
    while len(pairs) < max_probes and attempts < max_probes * 20:
        attempts += 1
        src = int(rng.integers(num_nodes))
        dst = int(rng.integers(num_nodes))
        if src != dst:
            pairs.add((src, dst))
    xs, ys = [], []
    for src, dst in sorted(pairs):
        hops, latency = _probe_latency(network_name, src, dst, num_nodes, packet_words)
        xs.append(hops)
        ys.append(latency)
    if len(set(xs)) < 2:
        return 0.0, float(np.mean(ys))
    slope, intercept = np.polyfit(xs, ys, 1)
    return float(slope), float(intercept)


def measure_pairwise_bandwidth(
    network_name: str,
    src: int,
    dst: int,
    *,
    num_nodes: int = 64,
    nic_mode: str = "plain",
    bulk: bool = False,
    packets: int = 60,
    packet_words: int = 8,
    seed: int = 0,
) -> float:
    """Measured steady-state bandwidth (bytes/cycle) of one pair's stream
    on an otherwise idle network -- the quantity Equations 1-3 predict.

    The first packet's end-to-end latency is excluded (steady state), so
    the result is payload_bytes / mean inter-arrival time at the receiver.
    """
    from ..experiments import ExperimentSpec, run_experiment
    from ..traffic import TrafficSpec
    from ..traffic.pairstream import PairStreamConfig

    config = PairStreamConfig(
        src=src, dst=dst, packets=packets, bulk=bulk, packet_words=packet_words
    )
    result = run_experiment(ExperimentSpec(
        network=network_name, traffic=TrafficSpec("pairstream", config),
        num_nodes=num_nodes, nic_mode=nic_mode, seed=seed,
        max_cycles=10_000_000,
    ))
    if not result.completed:
        raise RuntimeError(f"pair stream {src}->{dst} did not complete")
    receiver = result.drivers[dst]
    sender = result.drivers[src]
    span = receiver.last_receive_cycle - sender.first_send_cycle
    # steady state: charge (packets - 1) inter-arrival gaps
    per_packet = span / max(1, packets - 1)
    return packet_words * FLIT_BYTES / per_packet


def characterize(
    network_name: str,
    num_nodes: int = 64,
    hop_sample: Optional[int] = 500,
    measure_latency: bool = True,
) -> NetworkCharacteristics:
    """Compute one Table 3 row for ``network_name``."""
    sim = Simulator()
    net = build_network(network_name, sim, num_nodes, rng=RngFactory(7).stream("r"))
    net.attach_nics(lambda node: PlainNIC(sim, node))
    avg_hops, max_hops = net.hop_stats(sample=hop_sample)
    if measure_latency:
        slope, intercept = measure_latency_fit(network_name, num_nodes)
    else:
        slope = intercept = 0.0
    return NetworkCharacteristics(
        name=net.name,
        num_nodes=num_nodes,
        volume_words_per_node=net.volume_words_per_node(),
        bisection_bytes_per_cycle=net.bisection_bandwidth(),
        avg_hops=avg_hops,
        max_hops=max_hops,
        latency_slope=slope,
        latency_intercept=intercept,
        delivers_in_order=net.delivers_in_order,
    )
