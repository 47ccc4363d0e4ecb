"""Experiment metrics: delivered packets, latencies, ordering checks.

The paper's headline metric is "packets delivered within a fixed number of
cycles" (Section 4.1); the collector counts deliveries at processor-accept
time (the same point the paper's NICs hand packets to the processor), keeps
latency histograms (percentiles, not just mean/max), and can verify the
in-order delivery guarantee using the ``pair_seq`` stamps the traffic layer
puts on every packet.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..packets import Packet
from .histogram import LatencyHistogram, LatencyStats  # noqa: F401  (alias)


class MetricsCollector:
    """Hooks into NICs and processors to observe an experiment."""

    def __init__(
        self,
        num_nodes: int,
        check_order: bool = False,
        record_delivery_cycles: bool = False,
    ):
        self.num_nodes = num_nodes
        self.check_order = check_order
        self.sent = 0
        self.injected = 0
        self.delivered = 0
        self.abandoned = 0
        self.network_latency = LatencyHistogram()   # injection -> accept
        self.total_latency = LatencyHistogram()     # creation -> accept
        #: Reorder depth at ejection: how many packets of the same
        #: (src, dst) stream overtook this one in the network (0 on an
        #: in-order fabric).  Measured on first copies only -- a
        #: retransmission arriving late is recovery, not reordering.
        self.barrier_latency = LatencyHistogram()   # arrive -> release
        self.reorder_depth = LatencyHistogram()
        self.reorder_depth_by_pair: Dict[Tuple[int, int], LatencyHistogram] = {}
        self._eject_head: Dict[Tuple[int, int], int] = {}
        self.pending_per_receiver: List[int] = [0] * num_nodes
        self.order_violations = 0
        self._last_pair_seq: Dict[Tuple[int, int], int] = {}
        #: Accept cycles in acceptance order, kept only on request (fault
        #: runs need them to cut per-phase throughput and time-to-recover).
        self.delivery_cycles: List[int] = [] if record_delivery_cycles else None

    # ------------------------------------------------------------- wiring
    def attach(self, nics, processors) -> None:
        for nic in nics:
            nic.on_accept = self.note_accept
            nic.on_inject = self.note_inject
            nic.on_abandon = self.note_abandon
            nic.on_eject = self.note_eject
        for proc in processors:
            proc.on_send = self.note_send
            proc.on_barrier = self.note_barrier

    # -------------------------------------------------------------- hooks
    def note_send(self, packet: Packet) -> None:
        self.sent += 1

    def note_barrier(self, cycles: int) -> None:
        """One processor's arrive-to-release barrier/collective latency."""
        self.barrier_latency.note(cycles)

    def note_inject(self, packet: Packet) -> None:
        # Pending = in the network or the receiving NIC.  Packets waiting
        # in the sender's NIFDY pool deliberately do NOT count: Figure 5
        # visualises network congestion, and "instead of piling up in the
        # network, packets are blocked in the sender's NIFDY".
        self.injected += 1
        self.pending_per_receiver[packet.dst] += 1

    def note_abandon(self, packet: Packet) -> None:
        """A NIC gave up on ``packet`` (graceful degradation): the packet
        will never be delivered, so stop counting it as in flight."""
        if packet.delivered_cycle >= 0:
            # The sender released a packet whose original actually arrived
            # (only the acks were lost, e.g. a dead reply path): nothing is
            # owed to the receiver, so it is not a delivery debt write-off.
            return
        self.abandoned += 1
        if packet.injected_cycle >= 0:
            self.pending_per_receiver[packet.dst] -= 1

    def note_eject(self, packet: Packet) -> None:
        """Tail flit assembled at the destination NIC: measure how far out
        of send order the network delivered this packet."""
        if packet.is_retransmission or packet.pair_seq < 0:
            return
        key = (packet.src, packet.dst)
        head = self._eject_head.get(key, -1)
        if packet.pair_seq >= head:
            self._eject_head[key] = packet.pair_seq
            depth = 0
        else:
            depth = head - packet.pair_seq
        self.reorder_depth.note(depth)
        pair_hist = self.reorder_depth_by_pair.get(key)
        if pair_hist is None:
            pair_hist = self.reorder_depth_by_pair[key] = LatencyHistogram()
        pair_hist.note(depth)

    def note_accept(self, packet: Packet) -> None:
        self.delivered += 1
        if self.delivery_cycles is not None:
            self.delivery_cycles.append(packet.delivered_cycle)
        if packet.abandoned_cycle >= 0:
            # Its sender wrote it off, yet it arrived (a partition healed):
            # undo the write-off; note_abandon already stopped counting it
            # as pending at the receiver.
            self.abandoned -= 1
        elif packet.injected_cycle >= 0:
            self.pending_per_receiver[packet.dst] -= 1
        if packet.injected_cycle >= 0:
            self.network_latency.note(packet.delivered_cycle - packet.injected_cycle)
        if packet.created_cycle >= 0:
            self.total_latency.note(packet.delivered_cycle - packet.created_cycle)
        if self.check_order and packet.pair_seq >= 0:
            key = (packet.src, packet.dst)
            last = self._last_pair_seq.get(key, -1)
            if packet.pair_seq <= last:
                self.order_violations += 1
            else:
                self._last_pair_seq[key] = packet.pair_seq

    # ------------------------------------------------------------ queries
    @property
    def in_flight(self) -> int:
        """Packets still owed to a receiver.  Abandoned packets are a debt
        the network has explicitly written off, so they no longer count --
        this is what lets a degraded run terminate instead of spinning."""
        return self.sent - self.delivered - self.abandoned
