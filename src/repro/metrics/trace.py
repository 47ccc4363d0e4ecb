"""Per-packet event tracing: see what the protocol actually did.

A :class:`PacketTracer` hooks the NICs of an experiment (or a hand-built
network) and records the lifecycle of every data packet: creation, NIC
injection, ejection at the destination NIC, and processor accept.  Useful
for debugging protocol behaviour ("why did this packet wait 4000 cycles in
the pool?") and for latency breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..packets import Packet


@dataclass
class PacketTrace:
    """Lifecycle timestamps of one packet (-1 = not reached)."""

    uid: int
    src: int
    dst: int
    created: int = -1
    injected: int = -1
    ejected: int = -1
    accepted: int = -1
    abandoned: int = -1

    @property
    def pool_wait(self) -> Optional[int]:
        """Cycles from processor handoff to wire injection."""
        if self.created < 0 or self.injected < 0:
            return None
        return self.injected - self.created

    @property
    def flight_time(self) -> Optional[int]:
        """Cycles on the wire: injection to destination-NIC ejection."""
        if self.injected < 0 or self.ejected < 0:
            return None
        return self.ejected - self.injected

    @property
    def network_time(self) -> Optional[int]:
        """Cycles from injection to processor accept."""
        if self.injected < 0 or self.accepted < 0:
            return None
        return self.accepted - self.injected


class PacketTracer:
    """Records per-packet lifecycle events from a set of NICs.

    Chains with any already-installed ``on_inject`` / ``on_eject`` /
    ``on_accept`` / ``on_abandon`` hooks (e.g. the metrics collector), so
    tracing composes with measurement.
    """

    def __init__(self, max_packets: int = 100_000):
        self.max_packets = max_packets
        self.traces: Dict[int, PacketTrace] = {}
        self.dropped_records = 0

    def attach(self, nics) -> None:
        for nic in nics:
            prev_inject = nic.on_inject
            prev_eject = nic.on_eject
            prev_accept = nic.on_accept
            prev_abandon = nic.on_abandon

            def on_inject(packet, _prev=prev_inject):
                self.note_inject(packet)
                if _prev is not None:
                    _prev(packet)

            def on_eject(packet, _prev=prev_eject):
                self.note_eject(packet)
                if _prev is not None:
                    _prev(packet)

            def on_accept(packet, _prev=prev_accept):
                self.note_accept(packet)
                if _prev is not None:
                    _prev(packet)

            def on_abandon(packet, _prev=prev_abandon):
                self.note_abandon(packet)
                if _prev is not None:
                    _prev(packet)

            nic.on_inject = on_inject
            nic.on_eject = on_eject
            nic.on_accept = on_accept
            nic.on_abandon = on_abandon

    def _trace_for(self, packet: Packet) -> Optional[PacketTrace]:
        trace = self.traces.get(packet.uid)
        if trace is None:
            if len(self.traces) >= self.max_packets:
                self.dropped_records += 1
                return None
            trace = PacketTrace(packet.uid, packet.src, packet.dst,
                                created=packet.created_cycle)
            self.traces[packet.uid] = trace
        return trace

    def note_inject(self, packet: Packet) -> None:
        trace = self._trace_for(packet)
        if trace is not None:
            trace.injected = packet.injected_cycle

    def note_eject(self, packet: Packet) -> None:
        trace = self._trace_for(packet)
        if trace is not None:
            trace.ejected = packet.ejected_cycle

    def note_accept(self, packet: Packet) -> None:
        trace = self._trace_for(packet)
        if trace is not None:
            trace.accepted = packet.delivered_cycle

    def note_abandon(self, packet: Packet) -> None:
        trace = self._trace_for(packet)
        if trace is not None:
            trace.abandoned = packet.abandoned_cycle

    # ------------------------------------------------------------ queries
    def completed(self) -> List[PacketTrace]:
        return [t for t in self.traces.values() if t.accepted >= 0]

    def mean_pool_wait(self) -> float:
        waits = [t.pool_wait for t in self.completed() if t.pool_wait is not None]
        return sum(waits) / len(waits) if waits else 0.0

    def mean_network_time(self) -> float:
        times = [t.network_time for t in self.completed()
                 if t.network_time is not None]
        return sum(times) / len(times) if times else 0.0

    def stragglers(self, top: int = 10) -> List[PacketTrace]:
        """The packets that spent longest between injection and accept."""
        done = [t for t in self.completed() if t.network_time is not None]
        done.sort(key=lambda t: t.network_time, reverse=True)
        return done[:top]
