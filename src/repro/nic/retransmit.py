"""NIFDY extension for unreliable networks (Section 6.2).

"To handle networks that drop packets the sender must be able to retransmit
packets.  In addition, the receiver must be able to distinguish and eliminate
duplicate packets.  To accomplish retransmission we add one timer and one
message buffer per entry in the OPT and per outgoing bulk packet. ... To
distinguish duplicate packets, one additional bit in the header is enough for
both scalar and bulk packets."

Sender side: every injected data packet is held (with a timer) until it is
covered by an ack; on timeout it is re-injected ahead of new traffic.
Receiver side: scalar duplicates are detected with the alternating
``retx_bit``; bulk duplicates with the sequence number.  Duplicates are
discarded but re-acked, because the duplicate usually means the *ack* was
lost.  Acks themselves can be dropped, so bulk window credits are recovered
from the cumulative ``acked_seq`` an ack carries rather than from the
incremental credit count.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.events import EventKind
from ..packets import AckInfo, Packet, PacketKind
from ..sim import Event, Simulator
from .base import BaseNIC
from .nifdy import NifdyNIC, NifdyParams

#: Give-up policies when a packet exhausts ``max_retries``.
EXHAUST_POLICIES = ("raise", "abandon")

#: Cap on the exponential backoff shift (2**6 = 64x the base timeout).
_BACKOFF_CAP = 6


class RetransmitTimer:
    """One sender's retransmission timers, shared by every retransmitting NIC.

    Each held packet is keyed by a tuple the NIC chooses and carries one
    timer.  ``retx_timeout`` seeds the timeout; acked, never-retransmitted
    packets (Karn's rule) then feed a Jacobson/Karels estimator (SRTT gain
    1/8, RTTVAR gain 1/4, RTO = SRTT + 4*RTTVAR, clamped to
    ``[max(32, retx_timeout // 8), retx_timeout * 64]``), so the timer
    tracks the loaded round-trip time instead of requiring the per-network
    sweep the paper likens to Compressionless Routing's abort timeout.
    Retries back off exponentially with deterministic jitter (reproducible
    runs; no retransmission storms in lock-step).

    On a timeout the packet is re-armed and handed to ``requeue(packet)``;
    once it has used ``max_retries`` tries the timer either raises
    (``on_exhaust="raise"``) or calls ``exhausted(key)``.
    """

    def __init__(
        self,
        nic: BaseNIC,
        retx_timeout: int,
        max_retries: int,
        on_exhaust: str,
        requeue: Callable[[Packet], None],
        exhausted: Callable[[Tuple], None],
    ):
        if on_exhaust not in EXHAUST_POLICIES:
            raise ValueError(
                f"on_exhaust must be one of {EXHAUST_POLICIES}, got {on_exhaust!r}"
            )
        self.nic = nic
        self.sim = nic.sim
        self.retx_timeout = retx_timeout
        self.max_retries = max_retries
        self.on_exhaust = on_exhaust
        self._requeue = requeue
        self._exhausted = exhausted
        self._floor = max(32, retx_timeout // 8)
        self._cap = retx_timeout * 64
        self._srtt: Optional[float] = None
        self._rttvar = 0.0
        self._rto = retx_timeout
        #: key -> (packet, timer event, tries so far, cycle last armed)
        self.held: Dict[Tuple, Tuple[Packet, Event, int, int]] = {}
        self.retransmissions = 0
        self.rtt_samples = 0

    @property
    def current_timeout(self) -> int:
        """The base (pre-backoff) retransmission timeout in use right now."""
        return self._rto

    def note_rtt(self, sample: int) -> None:
        """Fold one clean (never-retransmitted) RTT sample into the RTO."""
        self.rtt_samples += 1
        if self._srtt is None:
            self._srtt = float(sample)
            self._rttvar = sample / 2.0
        else:
            err = sample - self._srtt
            self._srtt += err / 8.0
            self._rttvar += (abs(err) - self._rttvar) / 4.0
        self._rto = int(
            min(self._cap, max(self._floor, self._srtt + 4.0 * self._rttvar))
        )

    def arm(self, key: Tuple, packet: Packet, tries: int = 0) -> None:
        """Hold ``packet`` under ``key`` with a timer for attempt ``tries``:
        the base timeout doubled per retry, plus a small deterministic
        jitter so holders armed in the same cycle do not all fire together."""
        base = self._rto
        span = max(1, base // 8)
        jitter = zlib.crc32(f"{self.nic.node_id}|{key}|{tries}".encode()) % span
        delay = min(self._cap, (base << min(tries, _BACKOFF_CAP)) + jitter)
        event = self.sim.schedule(delay, self._fire, key)
        self.held[key] = (packet, event, tries, self.sim.now)
        obs = self.nic.obs
        if tries > 0 and obs is not None:
            obs.emit(
                self.sim.now, EventKind.BACKOFF, self.nic.node_id,
                uid=packet.uid, src=packet.src, dst=packet.dst,
                info=f"try={tries} delay={delay}",
            )

    def disarm(self, key: Tuple) -> None:
        """The packet under ``key`` was acked: stop its timer."""
        held = self.held.pop(key, None)
        if held is not None:
            held[1].cancel()
            if held[2] == 0:
                # Karn's rule: only never-retransmitted packets yield an
                # unambiguous (send, ack) pairing worth sampling.
                self.note_rtt(self.sim.now - held[3])

    def drop(self, key: Tuple) -> Optional[Packet]:
        """Stop holding ``key`` without an RTT sample (abandonment);
        returns the packet, or None if nothing was held."""
        held = self.held.pop(key, None)
        if held is None:
            return None
        held[1].cancel()
        return held[0]

    def stall_notes(self, describe: Callable[[Tuple, Packet], str]) -> List[str]:
        """Stall-report lines for the first few held packets; ``describe``
        renders the NIC's own key format."""
        return [
            f"retransmitting {describe(key, held[0])} ({held[2]} tries so far)"
            for key, held in list(self.held.items())[:4]
        ]

    def _fire(self, key: Tuple) -> None:
        held = self.held.get(key)
        if held is None:
            return
        packet, _, tries, _ = held
        if tries >= self.max_retries:
            if self.on_exhaust == "raise":
                raise RuntimeError(
                    f"node {self.nic.node_id}: gave up retransmitting {packet} "
                    f"after {tries} tries"
                )
            self._exhausted(key)
            return
        packet.is_retransmission = True
        self.retransmissions += 1
        obs = self.nic.obs
        if obs is not None:
            obs.emit_packet(
                self.sim.now, EventKind.RETRANSMIT, self.nic.node_id, packet
            )
        self.arm(key, packet, tries + 1)
        self._requeue(packet)


class RetransmittingNifdyNIC(NifdyNIC):
    """NIFDY with timers, retransmission, and duplicate elimination.

    Every injected data packet is held in a :class:`RetransmitTimer` until
    an ack covers it.

    When ``max_retries`` is exhausted the NIC either raises (the seed
    behaviour, ``on_exhaust="raise"``) or **degrades gracefully**
    (``on_exhaust="abandon"``): the packet -- and, for bulk, its whole
    dialog -- is dropped from the protocol state, ``packets_abandoned`` is
    incremented, and the ``on_abandon`` hook fires so the traffic layer
    learns that the software-visible reliability guarantee was released.
    """

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        params: Optional[NifdyParams] = None,
        retx_timeout: int = 1000,
        max_retries: int = 50,
        on_exhaust: str = "raise",
    ):
        super().__init__(sim, node_id, params)
        if self.params.scalar_ack_on_insert:
            # The 1-bit duplicate filter needs the receiver's bit to advance
            # in lockstep with ack emission (at FIFO pop); acking at insert
            # would let two live packets alias one bit.
            raise ValueError(
                "scalar_ack_on_insert is incompatible with retransmission"
            )
        self.retx = RetransmitTimer(
            self, retx_timeout, max_retries, on_exhaust,
            self._requeue, self._abandon,
        )
        # sender side -------------------------------------------------------
        self._next_bit: Dict[int, int] = {}       # per-destination scalar bit
        # receiver side -----------------------------------------------------
        self._last_acked_bit: Dict[int, int] = {}
        self._infifo_bits: Dict[int, int] = {}     # src -> bit in FIFO, if any

    # ------------------------------------------------------------- sender
    def _commit_scalar(self, dst: int) -> Packet:
        packet = super()._commit_scalar(dst)
        bit = self._next_bit.get(dst, 0) ^ 1
        self._next_bit[dst] = bit
        packet.retx_bit = bit
        self.retx.arm(("s", dst), packet)
        return packet

    def _commit_bulk(self, dst: int, bulk) -> Packet:
        packet = super()._commit_bulk(dst, bulk)
        self.retx.arm(("b", packet.dst, packet.dialog, packet.seq), packet)
        return packet

    def _queue_control_exit(self, bulk) -> Packet:
        exit_packet = super()._queue_control_exit(bulk)
        self.retx.arm(
            ("b", exit_packet.dst, exit_packet.dialog, exit_packet.seq),
            exit_packet,
        )
        return exit_packet

    def _requeue(self, packet: Packet) -> None:
        """A timer fired: re-inject ``packet`` ahead of new traffic."""
        self._control_queue.append(packet)
        self._pump_data()

    # ------------------------------------------------ graceful degradation
    def _abandon(self, key: Tuple) -> None:
        """Release a packet the network cannot deliver (partition, dead
        peer): free its protocol state so unrelated traffic keeps flowing,
        and record the loss instead of crashing the simulation."""
        packet = self.retx.drop(key)
        if packet is None:
            return
        if key[0] == "s":
            # Free the OPT entry so later packets to this destination may
            # try again (they get fresh timers of their own).
            if packet.dst in self.opt:
                self.opt.remove(packet.dst)
            bulk = self._bulk_out
            if (
                bulk is not None
                and bulk.dst == packet.dst
                and not bulk.granted
                and self.pool.count_for(packet.dst) == 0
            ):
                self._bulk_out = None  # the dialog request died with it
        else:
            # A bulk packet that cannot be delivered strands its dialog's
            # in-order window: give up on the whole dialog at once.
            dst, dialog = key[1], key[2]
            for other in [
                k for k in self.retx.held
                if k[0] == "b" and k[1] == dst and k[2] == dialog
            ]:
                self._abandon(other)
            bulk = self._bulk_out
            if bulk is not None and bulk.dst == dst and bulk.dialog == dialog:
                self._bulk_out = None
        # The timer may have queued this packet more than once while the
        # port was blocked: drop every copy, or one is injected later.
        self._control_queue = deque(
            p for p in self._control_queue if p is not packet
        )
        self._note_abandon(packet)
        self._pump_data()

    def stall_notes(self) -> List[str]:
        def describe(key: Tuple, packet: Packet) -> str:
            if key[0] == "s":
                return f"scalar to {packet.dst}"
            return f"bulk dialog {key[2]} seq {key[3]} to {packet.dst}"

        return self.retx.stall_notes(describe) + super().stall_notes()

    def _process_ack(self, ack: Packet) -> None:
        info = ack.ack
        peer = ack.src
        if info.for_scalar:
            held = self.retx.held.get(("s", peer))
            if held is None or held[0].retx_bit != info.acked_bit:
                # Duplicate or stale ack: the packet it covers has already
                # been acked (and a newer one may be in flight) -- ignore.
                self.acks_received += 1
                self._note_duplicate(ack)
                return
            self.retx.disarm(("s", peer))
        else:
            bulk = self._bulk_out
            current = (
                bulk is not None and bulk.dst == peer and bulk.dialog == info.dialog
            )
            if current:
                if info.acked_seq is not None and info.acked_seq >= 0:
                    # Cumulative credit recovery: everything through
                    # acked_seq is delivered, so the window refills to
                    # W - in_flight regardless of which acks were lost.
                    for seq in range(info.acked_seq + 1):
                        self.retx.disarm(("b", peer, info.dialog, seq))
                    in_flight = bulk.next_seq - (info.acked_seq + 1)
                    target = self.params.window - in_flight
                    info.credits = max(0, target - bulk.credits)
            elif info.dialog_terminated and info.acked_seq is not None:
                # Late terminate (re-)ack for a dialog this NIC already left
                # behind: stop the stale packet timers it covers, or they
                # would retransmit into a dead dialog until exhaustion.
                for seq in range(info.acked_seq + 1):
                    self.retx.disarm(("b", peer, info.dialog, seq))
        super()._process_ack(ack)

    # ------------------------------------------------------------ receiver
    def _on_packet_ejected(self, packet: Packet, vc: int, port: int) -> None:
        # A duplicate data packet is discarded below, but any ack riding in
        # its header is still fresh protocol state -- process it first.
        self._note_piggyback(packet)
        if packet.kind is PacketKind.SCALAR and packet.needs_ack:
            bit = packet.retx_bit
            src = packet.src
            if self._last_acked_bit.get(src) == bit:
                # Duplicate of an already-acked packet: the ack was lost.
                self._note_duplicate(packet)
                self._release_ejection(packet, vc, port)
                self._emit_scalar_ack(packet)
                return
            if self._infifo_bits.get(src) == bit:
                # Duplicate of a packet still queued for the processor;
                # its ack fires when that copy is popped, so just drop this.
                self._note_duplicate(packet)
                self._release_ejection(packet, vc, port)
                return
            self._infifo_bits[src] = bit
        elif packet.kind is PacketKind.BULK:
            dialog = self.rx_dialogs.get(packet.dialog)
            if dialog is None or dialog.src != packet.src:
                # Dialog already torn down (and, on a src mismatch, its id
                # re-granted to a different sender); the terminated ack was
                # lost.  Re-ack so the stale sender stops its timer.
                self._note_duplicate(packet)
                self._release_ejection(packet, vc, port)
                self._send_ack(
                    packet.src,
                    AckInfo(
                        for_scalar=False,
                        credits=0,
                        dialog=packet.dialog,
                        dialog_terminated=True,
                        acked_seq=packet.seq,
                    ),
                )
                return
            if packet.seq < dialog.next_deliver_seq or packet.seq in dialog.buffers:
                self._note_duplicate(packet)
                self._release_ejection(packet, vc, port)
                self._emit_bulk_ack(dialog, terminate=False)
                return
            if packet.seq >= dialog.next_deliver_seq + 2 * dialog.window:
                # No live sender can legally be this far ahead of the
                # window: it is a stale retransmission from an earlier
                # dialog generation with this same (src, id).  Its original
                # was delivered and acked; drop the wire garbage silently
                # (a terminate re-ack here would poison the live dialog).
                self._note_duplicate(packet)
                self._release_ejection(packet, vc, port)
                return
        super()._on_packet_ejected(packet, vc, port)

    def receive(self):
        packet = super().receive()
        if (
            packet is not None
            and packet.kind is PacketKind.SCALAR
            and packet.needs_ack
        ):
            # The pop is the accept event (it is when the ack goes out), so
            # the duplicate-filter bit must advance here too.
            src = packet.src
            self._last_acked_bit[src] = packet.retx_bit
            if self._infifo_bits.get(src) == packet.retx_bit:
                del self._infifo_bits[src]
        return packet
