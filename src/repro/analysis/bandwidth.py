"""The closed-form performance model of Section 2.4 (Equations 1-4).

All times are in processor cycles; packet sizes in bytes; ``d`` is the hop
count between the two nodes under discussion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable



def pairwise_bandwidth(
    payload_bytes: float, t_send: float, t_receive: float, t_link: float
) -> float:
    """Equation 1: bandwidth between two nodes without a NIFDY unit.

    ``t_link`` is the time for one packet to cross a link along the path in
    the absence of contention (the hardware limit on inter-packet arrival).
    The bandwidth is limited by the slowest of software send, software
    receive, and the wire."""
    return payload_bytes / max(t_send, t_receive, t_link)


def roundtrip_time(t_lat_d: float, t_ackproc: float) -> float:
    """Equation 2: T_roundtrip(d) = 2 * T_lat(d) + T_ackproc."""
    return 2.0 * t_lat_d + t_ackproc


def scalar_mode_sufficient(
    t_roundtrip: float, t_send: float, t_receive: float, t_link: float
) -> bool:
    """Section 2.4.1: the basic protocol reaches full pairwise bandwidth iff
    T_roundtrip(d) <= max(T_send, T_receive, T_link)."""
    return t_roundtrip <= max(t_send, t_receive, t_link)


def min_window_combined_acks(t_roundtrip: float, t_limit: float) -> int:
    """Equation 3: with one ack per W/2 packets, hiding the round trip needs
    W >= 2 * (T_roundtrip / T_limit - 1), where T_limit is whichever of
    T_receive / T_send / T_link is the per-packet bottleneck."""
    import math

    needed = 2.0 * (t_roundtrip / t_limit - 1.0)
    return max(2, math.ceil(needed))


def min_window_per_packet_acks(t_roundtrip: float, t_limit: float) -> int:
    """Equation 4 (per-packet acks): the window must cover the
    bandwidth-delay product, W >= T_roundtrip / T_limit.

    (The equation's right-hand side is illegible in our scan of the paper;
    this is the standard sliding-window condition it denotes.)"""
    import math

    return max(2, math.ceil(t_roundtrip / t_limit))


@dataclass
class NetworkModel:
    """Analytic description of one network, enough to drive Section 2.4.

    ``t_lat`` maps hop count to one-way latency, e.g. the paper's mesh is
    ``lambda d: 4 * d + 14`` and its fat tree ``lambda d: 5 * d + 2``.
    """

    t_lat: Callable[[int], float]
    max_hops: int
    avg_hops: float
    volume_words_per_node: float
    bisection_bytes_per_cycle: float
    num_nodes: int = 64
    t_ackproc: float = 4.0

    @property
    def bisection_per_node(self) -> float:
        """Bytes/cycle of bisection bandwidth per node -- the quantity that
        decides how restrictive admission control must be (Section 2.4.2)."""
        return self.bisection_bytes_per_cycle / self.num_nodes

    def roundtrip(self, d: int) -> float:
        return roundtrip_time(self.t_lat(d), self.t_ackproc)

    def max_roundtrip(self) -> float:
        return self.roundtrip(self.max_hops)


#: The two worked examples of Section 2.4.3.
PAPER_MESH_8X8 = NetworkModel(
    t_lat=lambda d: 4 * d + 14,
    max_hops=14,
    avg_hops=6.0,
    volume_words_per_node=8.0,
    bisection_bytes_per_cycle=8.0,
    num_nodes=64,
)

PAPER_FATTREE_64 = NetworkModel(
    t_lat=lambda d: 5 * d + 2,
    max_hops=6,
    avg_hops=5.5,
    volume_words_per_node=10.0,
    bisection_bytes_per_cycle=64.0,
    num_nodes=64,
)
