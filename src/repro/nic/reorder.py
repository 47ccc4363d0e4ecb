"""Reorder-tolerant receiver NICs: the modern-datacenter recovery variants.

NIFDY's bulk dialogs already solve receiver-side reordering for 1995-era
fabrics; the modern literature reopened the fight for multipath datacenter
networks where *every* packet may be sprayed onto a different path.  This
module implements three receiver-side recovery strategies behind one sender
(a per-destination sliding window with retransmission timers, the stream
analogue of NIFDY's OPT+timer machinery):

* ``window``    -- a NIFDY-style bounded reorder window: out-of-order
  packets are buffered (up to ``rx_window`` per source) and acknowledged
  only cumulatively, so a hole leaves the buffered successors' timers
  running and they are eventually retransmitted spuriously.
* ``bitmap``    -- an Eunomia-style bitmap tracker (arXiv 2412.08540): the
  same bounded buffer, but every ack carries the set of buffered sequence
  numbers (:attr:`repro.packets.AckInfo.sack`), so the sender stops the
  timers of packets that arrived out of order and retransmits only the
  holes -- selective repeat instead of go-back-N.
* ``dropcache`` -- a Jain-style receiver (DEC-TR-342): out-of-order packets
  are cached only up to ``cache_capacity`` packets (0 = the classic
  drop-everything-out-of-order receiver) and dropped beyond that, trading
  receiver buffer for retransmission bandwidth.

All three deliver to the processor strictly in per-source order
(``guarantees_order`` is True), so they pair with the spraying fabrics
(``fattree-spray`` / ``multibutterfly-spray``) the way NIFDY pairs with the
adaptive ones.

Graceful degradation: when a packet exhausts ``max_retries`` the sender
abandons the whole outstanding window to that destination (a hole would
stall the receiver's stream forever) and every subsequent data packet
carries :attr:`repro.packets.Packet.stream_base` -- the sender's lowest
unacked sequence -- so the receiver skips abandoned holes instead of
waiting on them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..packets import (
    AckInfo,
    Packet,
    PacketKind,
    REPLY_NET,
    REQUEST_NET,
    make_ack,
)
from ..sim import Simulator
from .base import BaseNIC
from .retransmit import RetransmitTimer

#: Receiver recovery policies.
REORDER_POLICIES = ("window", "bitmap", "dropcache")


@dataclass(frozen=True)
class ReorderParams:
    """Sizing of a reorder-tolerant NIC.

    ``tx_window`` bounds unacked packets per destination; ``rx_window``
    bounds the receiver's per-source reorder buffer (and must cover the
    send window, or the receiver would drop in steady state even without
    loss).  ``cache_capacity`` is the *total* out-of-order packets a
    ``dropcache`` receiver will hold across all sources (Jain's drop-vs-
    cache knob; ignored by the other policies).  ``nic_delay`` mirrors
    NIFDY's per-end processing latency.
    """

    tx_window: int = 8
    rx_window: int = 16
    cache_capacity: int = 0
    out_capacity: int = 64
    arrivals_capacity: int = 2
    nic_delay: int = 2

    def __post_init__(self) -> None:
        if self.tx_window < 1:
            raise ValueError("tx_window must be at least 1")
        if self.rx_window < self.tx_window:
            raise ValueError("rx_window must cover tx_window")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if self.out_capacity < 1 or self.arrivals_capacity < 1:
            raise ValueError("NIC buffer capacities must be at least 1")
        if self.nic_delay < 0:
            raise ValueError("nic_delay must be >= 0")


class _RxStream:
    """Per-source receiver state: next expected seq and the reorder buffer."""

    __slots__ = ("expect", "buffer", "bitmap", "stalled")

    def __init__(self) -> None:
        self.expect = 0
        #: seq -> packet, ejection credits already released (dedicated NIC
        #: buffer, like a NIFDY dialog's window buffers).
        self.buffer: Dict[int, Packet] = {}
        #: The advertised SACK set (bitmap policy); must mirror ``buffer``.
        self.bitmap: set = set()
        #: An in-order packet awaiting arrivals-FIFO space, still holding
        #: its network credits: (packet, vc, port).
        self.stalled: Optional[Tuple[Packet, int, int]] = None


class ReorderTolerantNIC(BaseNIC):
    """Windowed sender + one of three reorder-tolerant receivers."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        policy: str = "window",
        params: Optional[ReorderParams] = None,
        retx_timeout: int = 1000,
        max_retries: int = 50,
        on_exhaust: str = "raise",
    ):
        super().__init__(sim, node_id)
        if policy not in REORDER_POLICIES:
            raise ValueError(
                f"policy must be one of {REORDER_POLICIES}, got {policy!r}"
            )
        self.policy = policy
        self.reorder_params = params or ReorderParams()
        self.retx = RetransmitTimer(
            self, retx_timeout, max_retries, on_exhaust,
            self._requeue, lambda key: self._abandon_stream(key[1]),
        )
        # sender ----------------------------------------------------------
        self._out: Deque[Packet] = deque()          # not yet committed
        self._staged: Optional[Packet] = None       # committed, next on wire
        self._retx_queue: Deque[Packet] = deque()   # timers refired
        self._next_seq: Dict[int, int] = {}         # dst -> next stream seq
        self._cum: Dict[int, int] = {}              # dst -> highest cum ack
        #: sacked: received out-of-order at the peer, timer stopped, kept
        #: only so a later stream abandonment can write them off too.
        self._sacked: Dict[Tuple[int, int], Packet] = {}
        # receiver --------------------------------------------------------
        #: Receiver streams by source.
        self.reorder_rx: Dict[int, _RxStream] = {}
        self._cached = 0                            # buffered OOO, all srcs
        self._arrivals: Deque[Packet] = deque()
        self._ack_due: Dict[int, None] = {}
        self._ack_queue: Deque[Packet] = deque()
        # statistics ------------------------------------------------------
        self.receiver_drops = 0
        self.acks_sent = 0
        self.acks_received = 0
        self.max_reorder_buffered = 0

    # ------------------------------------------------------------- queries
    @property
    def guarantees_order(self) -> bool:
        return True

    @property
    def reorder_cached(self) -> int:
        """Out-of-order packets currently buffered across all sources."""
        return self._cached

    @property
    def pending_out(self) -> int:
        return len(self._out) + (1 if self._staged is not None else 0)

    def _unacked(self, dst: int) -> int:
        return self._next_seq.get(dst, 0) - (self._cum.get(dst, -1) + 1)

    def _tx_base(self, dst: int) -> int:
        return self._cum.get(dst, -1) + 1

    # ----------------------------------------------------------- send path
    def can_send(self) -> bool:
        return len(self._out) < self.reorder_params.out_capacity

    def try_send(self, packet: Packet) -> bool:
        if not self.can_send():
            return False
        packet.created_cycle = (
            packet.created_cycle if packet.created_cycle >= 0 else self.sim.now
        )
        self._out.append(packet)
        self._pump_data()
        return True

    def _next_transmit(self) -> Optional[Packet]:
        if self._staged is not None:
            return self._staged
        while self._retx_queue:
            packet = self._retx_queue.popleft()
            held = self.retx.held.get(("r", packet.dst, packet.seq))
            if held is None or held[0] is not packet:
                continue  # acked or abandoned while queued
            self._staged = packet
            return packet
        for i, packet in enumerate(self._out):
            if self._unacked(packet.dst) < self.reorder_params.tx_window:
                del self._out[i]
                seq = self._next_seq.get(packet.dst, 0)
                self._next_seq[packet.dst] = seq + 1
                packet.seq = seq
                self.retx.arm(("r", packet.dst, seq), packet)
                self._staged = packet
                return packet
        return None

    def _pump_data(self) -> None:
        while True:
            packet = self._next_transmit()
            if packet is None:
                return
            held = self.retx.held.get(("r", packet.dst, packet.seq))
            if held is None or held[0] is not packet:
                # Acked or abandoned while staged: nothing left to send.
                self._staged = None
                continue
            if not self._injection_port_free(REQUEST_NET):
                self._retry_when_port_frees("data", REQUEST_NET, self._pump_data)
                return
            packet.stream_base = self._tx_base(packet.dst)
            if not self._start_injection(packet):
                # Allocation refused (e.g. a faulted link): retry later.
                self._retry_when_port_frees("data", REQUEST_NET, self._pump_data)
                return
            self._staged = None

    def _on_injection_complete(self, packet: Packet) -> None:
        if packet.kind is PacketKind.ACK:
            self._pump_acks()
        else:
            self._pump_data()

    def _requeue(self, packet: Packet) -> None:
        """A timer fired: send ``packet`` again ahead of new traffic."""
        self._retx_queue.append(packet)
        self._pump_data()

    # ------------------------------------------------ graceful degradation
    def _abandon_stream(self, dst: int) -> None:
        """Write off every unacked packet to ``dst``.

        A single abandoned hole would stall the receiver's stream forever,
        so the whole outstanding window goes at once (the stream analogue
        of NIFDY's dialog teardown); later packets carry a ``stream_base``
        past the hole so the receiver resynchronises.
        """
        for key in [k for k in self.retx.held if k[1] == dst]:
            self._note_abandon(self.retx.drop(key))
        for skey in [s for s in self._sacked if s[0] == dst]:
            self._note_abandon(self._sacked.pop(skey))
        if self._staged is not None and self._staged.dst == dst:
            self._staged = None
        self._cum[dst] = self._next_seq.get(dst, 0) - 1
        self._pump_data()

    def stall_notes(self) -> List[str]:
        return self.retx.stall_notes(
            lambda key, packet: f"stream seq {key[2]} to {packet.dst}"
        )

    # ------------------------------------------------------- ack handling
    def _process_ack(self, ack: Packet) -> None:
        info = ack.ack
        peer = ack.src
        cum = info.acked_seq
        if cum is not None and cum > self._cum.get(peer, -1):
            for seq in range(self._cum.get(peer, -1) + 1, cum + 1):
                self.retx.disarm(("r", peer, seq))
                self._sacked.pop((peer, seq), None)
            self._cum[peer] = cum
        if info.sack:
            for seq in info.sack:
                key = ("r", peer, seq)
                held = self.retx.held.get(key)
                if held is not None:
                    # Buffered at the peer: stop the timer (selective
                    # repeat), but remember the packet so a later stream
                    # abandonment still writes it off.
                    self._sacked[(peer, seq)] = held[0]
                    self.retx.disarm(key)
        self._pump_data()

    # ------------------------------------------------------- receive path
    def _rx_stream(self, src: int) -> _RxStream:
        st = self.reorder_rx.get(src)
        if st is None:
            st = self.reorder_rx[src] = _RxStream()
        return st

    def _on_packet_ejected(self, packet: Packet, vc: int, port: int) -> None:
        if packet.kind is PacketKind.ACK:
            self.acks_received += 1
            self._release_ejection(packet, vc, port)
            self.sim.post(self.reorder_params.nic_delay, self._process_ack, packet)
            return
        src = packet.src
        st = self._rx_stream(src)
        if packet.stream_base is not None and packet.stream_base > st.expect:
            self._skip_to(st, src, packet.stream_base)
        seq = packet.seq
        if seq is None:
            raise RuntimeError(
                f"node {self.node_id}: unsequenced data packet {packet} "
                f"at a reorder-tolerant receiver"
            )
        stalled_dup = st.stalled is not None and seq == st.stalled[0].seq
        if seq < st.expect or seq in st.buffer or stalled_dup:
            # Already delivered or already buffered: the ack was lost.
            self._note_duplicate(packet)
            self._release_ejection(packet, vc, port)
            self._ack_due[src] = None
            self._flush_acks()
            return
        params = self.reorder_params
        if seq >= st.expect + params.rx_window:
            # Beyond the reorder window: drop unacked; the sender retries.
            self.receiver_drops += 1
            self._release_ejection(packet, vc, port)
            return
        if seq == st.expect and st.stalled is None:
            if len(self._arrivals) < params.arrivals_capacity:
                self._arrivals.append(packet)
                self._release_ejection(packet, vc, port)
                st.expect += 1
                self._ack_due[src] = None
            else:
                # Withhold credits: network backpressure, not a drop.  The
                # cumulative ack advances when the processor drains it.
                st.stalled = (packet, vc, port)
            self._drain()
            self._flush_acks()
            return
        # Out of order: cache it (the policy decides how much cache exists).
        if self.policy == "dropcache" and self._cached >= params.cache_capacity:
            self.receiver_drops += 1
            self._release_ejection(packet, vc, port)
            return
        st.buffer[seq] = packet
        if self.policy == "bitmap":
            st.bitmap.add(seq)
        self._cached += 1
        if self._cached > self.max_reorder_buffered:
            self.max_reorder_buffered = self._cached
        self._release_ejection(packet, vc, port)
        self._ack_due[src] = None
        self._flush_acks()

    def _skip_to(self, st: _RxStream, src: int, base: int) -> None:
        """The sender wrote off everything below ``base``: drop any cached
        copies of the abandoned range and resume the stream there."""
        if st.stalled is not None and st.stalled[0].seq < base:
            pkt, vc, port = st.stalled
            st.stalled = None
            self._release_ejection(pkt, vc, port)
            self.receiver_drops += 1
        for seq in [s for s in st.buffer if s < base]:
            del st.buffer[seq]
            st.bitmap.discard(seq)
            self._cached -= 1
            self.receiver_drops += 1
        st.expect = base
        self._ack_due[src] = None

    def _drain(self) -> None:
        """Move deliverable packets into the arrivals FIFO, oldest first."""
        progressed = True
        while progressed and len(self._arrivals) < self.reorder_params.arrivals_capacity:
            progressed = False
            for src, st in self.reorder_rx.items():
                if len(self._arrivals) >= self.reorder_params.arrivals_capacity:
                    break
                if st.stalled is not None:
                    pkt, vc, port = st.stalled
                    st.stalled = None
                    self._arrivals.append(pkt)
                    self._release_ejection(pkt, vc, port)
                    st.expect += 1
                    self._ack_due[src] = None
                    progressed = True
                    continue
                pkt = st.buffer.pop(st.expect, None)
                if pkt is not None:
                    st.bitmap.discard(st.expect)
                    self._cached -= 1
                    self._arrivals.append(pkt)
                    st.expect += 1
                    self._ack_due[src] = None
                    progressed = True

    def has_arrival(self) -> bool:
        return bool(self._arrivals)

    def receive(self) -> Optional[Packet]:
        if not self._arrivals:
            return None
        packet = self._arrivals.popleft()
        self._drain()
        self._flush_acks()
        return packet

    # ---------------------------------------------------------- ack output
    def _flush_acks(self) -> None:
        for src in list(self._ack_due):
            st = self.reorder_rx.get(src)
            if st is None:
                continue
            sack = None
            if self.policy == "bitmap" and st.buffer:
                sack = tuple(sorted(st.buffer))
            info = AckInfo(for_scalar=True, acked_seq=st.expect - 1, sack=sack)
            self.acks_sent += 1
            self.sim.post(
                self.reorder_params.nic_delay,
                self._ack_ready,
                make_ack(self.node_id, src, info),
            )
        self._ack_due.clear()

    def _ack_ready(self, ack: Packet) -> None:
        self._ack_queue.append(ack)
        self._pump_acks()

    def _pump_acks(self) -> None:
        while self._ack_queue:
            if not self._start_injection(self._ack_queue[0]):
                self._retry_when_port_frees("ack", REPLY_NET, self._pump_acks)
                return
            self._ack_queue.popleft()
