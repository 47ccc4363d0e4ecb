"""The NIFDY unit: admission control + in-order delivery at the network edge.

This is the paper's contribution (Section 2).  The unit sits between the
processor and the network port and implements:

* **Scalar protocol** -- at most one unacknowledged packet per destination;
  destinations with an outstanding packet are recorded in the OPT (size O);
  up to B outgoing packets wait in a pool whose rank/eligibility unit picks
  the frontmost packet of any destination that is clear to send.
* **Bulk protocol** -- software sets the bulk-request header bit; the
  receiver grants one of its D dialog slots by returning a dialog number in
  the ack, giving the sender a window of W packets acknowledged W/2 at a
  time.  Out-of-order arrivals wait in the dialog's W hardware reorder
  buffers; packets are handed to the processor strictly in send order.
* **Acks** -- hardware-generated, riding the reply network, consumed by the
  sending node's NIFDY.  A scalar packet is acked when the processor accepts
  it (the paper's footnote 2 found acking at FIFO-insert time "surprisingly
  less effective"; ``scalar_ack_on_insert`` keeps that as an ablation).

Resource usage is exactly the paper's: O CAM entries, B pool buffers,
D*W reorder buffers, a 2-packet arrivals FIFO -- independent of machine size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..obs.events import EventKind
from ..packets import (
    AckInfo,
    FLIT_BYTES,
    Packet,
    PacketKind,
    REPLY_NET,
    REQUEST_NET,
    make_ack,
)
from ..sim import Simulator
from .base import BaseNIC
from .bulk import BulkReceiverDialog, BulkSender
from .opt import OutstandingPacketTable
from .pool import OutgoingPool


@dataclass
class NifdyParams:
    """Tuning parameters of a NIFDY unit (Section 2.1).

    ``opt_size`` is O, ``pool_size`` is B, ``dialogs`` is D, ``window`` is W.
    Setting ``dialogs`` or ``window`` to zero disables the bulk protocol
    (the butterfly's best configuration in Table 3).
    """

    opt_size: int = 8
    pool_size: int = 8
    dialogs: int = 1
    window: int = 8
    arrivals_capacity: int = 2
    #: NIFDY processing cycles at each end (T_ackproc = 2 * nifdy_delay).
    nifdy_delay: int = 2
    #: Ablation (paper footnote 2): ack scalars when inserted into the
    #: arrivals FIFO instead of when the processor accepts them.
    scalar_ack_on_insert: bool = False
    #: Combined-ack interval; None means the paper's W/2 (Section 2.4.2).
    #: 1 reproduces the per-packet ack alternative (Equation 4).
    ack_every: Optional[int] = None
    #: Section 6.1 extension: hold acks briefly and ride them in the header
    #: of a data packet headed to the same node (e.g. the user-level reply),
    #: falling back to a standalone ack after ``piggyback_window`` cycles.
    piggyback_acks: bool = False
    piggyback_window: int = 30
    #: Footnote 3 extension: request a bulk dialog automatically when the
    #: locally observed traffic shows at least this many pool packets queued
    #: for one destination (None = only software-set request bits).
    auto_bulk_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.opt_size < 1 or self.pool_size < 1:
            raise ValueError("O and B must be at least 1")
        if self.dialogs < 0 or self.window < 0:
            raise ValueError("D and W cannot be negative")
        if self.window == 1:
            raise ValueError("a bulk window needs at least 2 buffers")

    @property
    def bulk_enabled(self) -> bool:
        return self.dialogs > 0 and self.window >= 2

    @property
    def ack_interval(self) -> int:
        if self.ack_every is not None:
            return max(1, self.ack_every)
        return max(1, self.window // 2)

    @property
    def total_buffers(self) -> int:
        """Packet buffers a buffers-only NIC gets for a fair comparison."""
        return (
            self.pool_size
            + self.arrivals_capacity
            + (self.dialogs * self.window if self.bulk_enabled else 0)
        )


class NifdyNIC(BaseNIC):
    """A network interface with flow control and in-order delivery."""

    def __init__(self, sim: Simulator, node_id: int, params: Optional[NifdyParams] = None):
        super().__init__(sim, node_id)
        self.params = params or NifdyParams()
        # ----- sender side
        self.pool = OutgoingPool(self.params.pool_size)
        self.opt = OutstandingPacketTable(self.params.opt_size)
        self._bulk_out: Optional[BulkSender] = None
        self._control_queue: Deque[Packet] = deque()
        self._data_streaming: Optional[Packet] = None
        self._rr_offset = 0
        # ----- receiver side
        self._arrivals: Deque[Packet] = deque()
        self._stalled_scalar: Deque[Tuple[Packet, int]] = deque()
        self.rx_dialogs: Dict[int, BulkReceiverDialog] = {}
        self._free_dialogs: List[int] = list(range(self.params.dialogs))
        self._dialog_by_src: Dict[int, int] = {}
        self._ack_queue: Deque[Packet] = deque()
        self._piggyback_pending: Dict[int, Deque] = {}
        # ----- statistics
        self.acks_sent = 0
        self.acks_received = 0
        self.bulk_grants = 0
        self.bulk_rejects = 0
        self.scalar_sent = 0
        self.bulk_sent = 0

    # ====================================================== processor: send
    def can_send(self) -> bool:
        return not self.pool.full

    def try_send(self, packet: Packet) -> bool:
        """Insert ``packet`` into the outgoing pool (rank assigned there)."""
        if packet.created_cycle < 0:
            packet.created_cycle = self.sim.now
        if not self.pool.insert(packet):
            return False
        if self.obs is not None:
            self.obs.emit_packet(
                self.sim.now, EventKind.POOL_ENQUEUE, self.node_id, packet
            )
        self._pump_data()
        return True

    # ------------------------------------------------- eligibility + inject
    def _pump_data(self) -> None:
        """Inject the next eligible packet, if the network port is free."""
        if self._data_streaming is not None:
            return
        if not self._injection_port_free(REQUEST_NET):
            # The previous packet's tail is still crossing the injection
            # wire; retry when its VC is released.
            self._retry_when_port_frees("data", REQUEST_NET, self._pump_data)
            return
        packet = self._next_control() or self._select_eligible()
        if packet is None:
            return
        self._maybe_piggyback(packet)
        if not self._start_injection(packet):
            # The port-free check passed but allocation was refused: the
            # injection link failed in between (fault injection).  The
            # packet's protocol state is already committed, so requeue it
            # at the head and retry when the link frees -- or is repaired.
            self._control_queue.appendleft(packet)
            self._retry_when_port_frees("data", REQUEST_NET, self._pump_data)
            return
        self._data_streaming = packet
        if packet.kind is PacketKind.SCALAR:
            self.scalar_sent += 1
        else:
            self.bulk_sent += 1

    def _next_control(self) -> Optional[Packet]:
        if self._control_queue:
            return self._control_queue.popleft()
        return None

    def _select_eligible(self) -> Optional[Packet]:
        """The rank/eligibility unit: pick an eligible frontmost packet.

        Selection rotates over destinations so streams to different nodes
        interleave ("if several messages are ready to go to different
        processors, they can be interleaved up to the limit of the OPT").
        Returns the chosen packet with its header fields committed (OPT
        entry inserted or window credit consumed).
        """
        dsts = self.pool.destinations()
        if not dsts:
            return None
        n = len(dsts)
        self._rr_offset = (self._rr_offset + 1) % n
        for i in range(n):
            dst = dsts[(self._rr_offset + i) % n]
            front = self.pool.front(dst)
            bulk = self._bulk_out
            if front.needs_ack is False:
                # Section 6.1 extension: protocol-bypassing packets are
                # always eligible and consume no OPT entry.
                return self._commit_bypass(dst)
            if bulk is not None and bulk.dst == dst:
                if bulk.granted:
                    if bulk.exited and not bulk.exit_acked:
                        continue  # dialog teardown in flight; preserve order
                    if bulk.credits > 0:
                        return self._commit_bulk(dst, bulk)
                    continue  # window closed
                # Dialog requested but not yet granted: keep sending scalar
                # packets (with the request bit) one at a time.
            if dst in self.opt:
                if self.obs is not None:
                    self.obs.emit(
                        self.sim.now, EventKind.OPT_HIT, self.node_id, dst=dst
                    )
                continue
            if self.opt.full:
                if self.obs is not None:
                    self.obs.emit(
                        self.sim.now, EventKind.OPT_FULL, self.node_id, dst=dst
                    )
                continue
            return self._commit_scalar(dst)
        return None

    def _pool_take(self, dst: int) -> Packet:
        """Pop the frontmost pool packet for ``dst`` (instrumented)."""
        packet = self.pool.pop_front(dst)
        if self.obs is not None:
            self.obs.emit_packet(
                self.sim.now, EventKind.POOL_DEQUEUE, self.node_id, packet
            )
        return packet

    def _commit_scalar(self, dst: int) -> Packet:
        packet = self._pool_take(dst)
        packet.kind = PacketKind.SCALAR
        auto = self.params.auto_bulk_threshold
        wants_bulk = (
            packet.bulk_request
            # Footnote 3: request bulk mode automatically when the locally
            # observed traffic (packets queued behind this one) justifies it.
            or (auto is not None and self.pool.count_for(dst) + 1 >= auto)
        ) and self.params.bulk_enabled
        if wants_bulk and self._bulk_out is None:
            self._bulk_out = BulkSender(dst)
        packet.bulk_request = (
            wants_bulk
            and self._bulk_out is not None
            and self._bulk_out.dst == dst
            and not self._bulk_out.granted
        )
        self.opt.add(dst)
        return packet

    def _commit_bulk(self, dst: int, bulk: BulkSender) -> Packet:
        packet = self._pool_take(dst)
        packet.kind = PacketKind.BULK
        packet.bulk_request = False
        packet.dialog = bulk.dialog
        packet.seq = bulk.take_credit()
        if packet.msg_seq == packet.msg_len - 1:
            packet.bulk_exit = True
            bulk.exited = True
        return packet

    def _commit_bypass(self, dst: int) -> Packet:
        packet = self._pool_take(dst)
        packet.kind = PacketKind.SCALAR
        packet.bulk_request = False
        return packet

    def _queue_control_exit(self, bulk: BulkSender) -> Packet:
        """Close a dialog we no longer have traffic for (grant raced past
        the end of the message).  A header-only bulk packet with the exit
        bit frees the receiver's dialog slot.  Returns the exit packet so
        subclasses can track it."""
        packet = Packet(
            src=self.node_id,
            dst=bulk.dst,
            kind=PacketKind.BULK,
            size_bytes=2 * FLIT_BYTES,
            logical_net=REQUEST_NET,
            control_only=True,
            bulk_exit=True,
            dialog=bulk.dialog,
            seq=bulk.take_credit(),
        )
        bulk.exited = True
        self._control_queue.append(packet)
        self._pump_data()
        return packet

    def _on_injection_complete(self, packet: Packet) -> None:
        if packet.kind is PacketKind.ACK:
            self._pump_acks()
            return
        if packet is self._data_streaming:
            self._data_streaming = None
        self._pump_data()

    # =================================================== network: ejection
    def _note_piggyback(self, packet: Packet) -> None:
        """Process (then clear) an ack riding in a data packet's header."""
        info = packet.piggyback_ack
        if info is None:
            return
        packet.piggyback_ack = None
        carrier = make_ack(packet.src, self.node_id, info)
        self.sim.post(self.params.nifdy_delay, self._process_ack, carrier)

    def _on_packet_ejected(self, packet: Packet, vc: int, port: int) -> None:
        self._note_piggyback(packet)
        if packet.kind is PacketKind.ACK:
            self._release_ejection(packet, vc, port)
            self.sim.post(self.params.nifdy_delay, self._process_ack, packet)
            return
        if packet.kind is PacketKind.BULK:
            dialog = self.rx_dialogs.get(packet.dialog)
            if dialog is None:
                raise RuntimeError(
                    f"node {self.node_id}: bulk packet for unknown dialog "
                    f"{packet.dialog}: {packet}"
                )
            dialog.store(packet)
            # The reorder buffers are dedicated hardware; window credits
            # guarantee space, so the network buffer frees immediately.
            self._release_ejection(packet, vc, port)
            self._drain()
            return
        # Scalar data: into the arrivals FIFO if there is room, otherwise
        # it occupies network buffering -- end-point backpressure.
        if len(self._arrivals) < self.params.arrivals_capacity:
            self._enqueue_arrival(packet)
            self._release_ejection(packet, vc, port)
        else:
            self._stalled_scalar.append((packet, vc, port))

    def _enqueue_arrival(self, packet: Packet) -> None:
        self._arrivals.append(packet)
        if (
            packet.needs_ack
            and self.params.scalar_ack_on_insert
            and packet.kind is PacketKind.SCALAR
        ):
            self._emit_scalar_ack(packet)

    def _drain(self) -> None:
        """Move deliverable packets toward the processor.

        Order sources: stalled scalar ejects first (they hold network
        buffers), then in-order bulk packets from each dialog.  Dialog
        bookkeeping (exit packets, combined acks) happens here.
        """
        progress = True
        while progress:
            progress = False
            while (
                self._stalled_scalar
                and len(self._arrivals) < self.params.arrivals_capacity
            ):
                packet, vc, port = self._stalled_scalar.popleft()
                self._enqueue_arrival(packet)
                self._release_ejection(packet, vc, port)
                progress = True
            for dialog in list(self.rx_dialogs.values()):
                while True:
                    nxt = dialog.next_in_order()
                    if nxt is None:
                        break
                    if nxt.control_only:
                        dialog.pop_next()
                        progress = True
                    elif len(self._arrivals) < self.params.arrivals_capacity:
                        self._enqueue_arrival(dialog.pop_next())
                        progress = True
                    else:
                        break
                self._service_dialog_acks(dialog)

    def _service_dialog_acks(self, dialog: BulkReceiverDialog) -> None:
        interval = self.params.ack_interval
        if dialog.complete:
            self._emit_bulk_ack(dialog, terminate=True)
            del self.rx_dialogs[dialog.dialog]
            del self._dialog_by_src[dialog.src]
            self._free_dialogs.append(dialog.dialog)
            if self.obs is not None:
                self.obs.emit(
                    self.sim.now, EventKind.DIALOG_CLOSE, self.node_id,
                    src=dialog.src, dst=self.node_id,
                    info=f"dialog={dialog.dialog}",
                )
        elif dialog.freed_since_ack >= interval:
            self._emit_bulk_ack(dialog, terminate=False)

    # ------------------------------------------------------- ack generation
    def _emit_scalar_ack(self, packet: Packet) -> None:
        info = AckInfo(for_scalar=True, acked_bit=packet.retx_bit)
        if packet.bulk_request and self.params.bulk_enabled:
            existing = self._dialog_by_src.get(packet.src)
            if existing is not None:
                info.dialog_granted = existing  # idempotent re-grant
                info.credits = self.params.window
            elif self._free_dialogs:
                dialog_id = self._free_dialogs.pop()
                self.rx_dialogs[dialog_id] = BulkReceiverDialog(
                    packet.src, dialog_id, self.params.window
                )
                self._dialog_by_src[packet.src] = dialog_id
                info.dialog_granted = dialog_id
                info.credits = self.params.window
                self.bulk_grants += 1
                if self.obs is not None:
                    self.obs.emit(
                        self.sim.now, EventKind.DIALOG_GRANT, self.node_id,
                        src=packet.src, dst=self.node_id,
                        info=f"dialog={dialog_id}",
                    )
            else:
                info.dialog_rejected = True
                self.bulk_rejects += 1
                if self.obs is not None:
                    self.obs.emit(
                        self.sim.now, EventKind.DIALOG_DENY, self.node_id,
                        src=packet.src, dst=self.node_id,
                    )
        elif packet.bulk_request:
            info.dialog_rejected = True
            self.bulk_rejects += 1
            if self.obs is not None:
                self.obs.emit(
                    self.sim.now, EventKind.DIALOG_DENY, self.node_id,
                    src=packet.src, dst=self.node_id,
                )
        self._send_ack(packet.src, info)

    def _emit_bulk_ack(self, dialog: BulkReceiverDialog, terminate: bool) -> None:
        info = AckInfo(
            for_scalar=False,
            credits=dialog.freed_since_ack,
            dialog=dialog.dialog,
            dialog_terminated=terminate,
            acked_seq=dialog.next_deliver_seq - 1,
        )
        dialog.freed_since_ack = 0
        self._send_ack(dialog.src, info)

    def _send_ack(self, to: int, info: AckInfo) -> None:
        if self.params.piggyback_acks:
            pending = self._piggyback_pending.setdefault(to, deque())
            event = self.sim.schedule(
                self.params.nifdy_delay + self.params.piggyback_window,
                self._piggyback_expire, to, info,
            )
            pending.append((info, event))
            return
        ack = make_ack(self.node_id, to, info)
        # post(): ack hand-offs are fire-and-forget (only the piggyback
        # expiry above ever needs cancelling, and it keeps schedule()).
        self.sim.post(self.params.nifdy_delay, self._ack_ready, ack)

    # ------------------------------------------------ piggybacking (S6.1)
    def _maybe_piggyback(self, packet: Packet) -> None:
        """Ride the oldest pending ack for this destination in the data
        packet's header (one extra bit plus fields the header already has)."""
        pending = self._piggyback_pending.get(packet.dst)
        if not pending or packet.piggyback_ack is not None:
            return
        info, event = pending.popleft()
        event.cancel()
        packet.piggyback_ack = info

    def _piggyback_expire(self, to: int, info: AckInfo) -> None:
        """No data packet showed up in time; send the standalone ack."""
        pending = self._piggyback_pending.get(to)
        if not pending:
            return
        for entry in pending:
            if entry[0] is info:
                pending.remove(entry)
                break
        else:
            return
        self._ack_ready(make_ack(self.node_id, to, info))

    def _ack_ready(self, ack: Packet) -> None:
        self._ack_queue.append(ack)
        self._pump_acks()

    def _pump_acks(self) -> None:
        while self._ack_queue:
            if not self._start_injection(self._ack_queue[0]):
                self._retry_when_port_frees("ack", REPLY_NET, self._pump_acks)
                return
            self._ack_queue.popleft()
            self.acks_sent += 1

    # ------------------------------------------------------- ack reception
    def _process_ack(self, ack: Packet) -> None:
        """Sender-side ack handling, after the NIFDY processing delay."""
        self.acks_received += 1
        if self.obs is not None:
            self.obs.emit_packet(
                self.sim.now, EventKind.ACK_CONSUMED, self.node_id, ack
            )
        info = ack.ack
        peer = ack.src
        bulk = self._bulk_out
        if info.for_scalar:
            self.opt.remove(peer)
            if info.dialog_granted is not None:
                if bulk is not None and bulk.dst == peer:
                    if not bulk.granted:
                        bulk.grant(info.dialog_granted, info.credits)
                        if self.pool.count_for(peer) == 0:
                            self._queue_control_exit(bulk)
                    # else: duplicate grant for an already-granted dialog.
                else:
                    # We no longer want the dialog; free the receiver's slot
                    # with a header-only exit (transient sender state).
                    orphan = BulkSender(peer)
                    orphan.grant(info.dialog_granted, info.credits)
                    self._queue_control_exit(orphan)
            elif bulk is not None and bulk.dst == peer and not bulk.granted:
                # Rejected or plain ack while requesting: drop the request
                # state if the message finished without a grant.
                if self.pool.count_for(peer) == 0 and peer not in self.opt:
                    self._bulk_out = None
        else:
            if bulk is not None and bulk.dst == peer and bulk.dialog == info.dialog:
                bulk.credits += info.credits
                if info.dialog_terminated:
                    bulk.exit_acked = True
                    if bulk.exited:
                        self._bulk_out = None
            # else: ack for an already-abandoned dialog; nothing to update.
        self._pump_data()

    # ================================================== processor: receive
    def has_arrival(self) -> bool:
        return bool(self._arrivals)

    def receive(self) -> Optional[Packet]:
        if not self._arrivals:
            return None
        packet = self._arrivals.popleft()
        # "When it is accepted by the processor an ack is returned": the
        # processor taking the packet out of the arrivals FIFO is the accept
        # event -- flow control tracks the processor's pull rate without
        # charging the software handler's execution to the round trip.
        if (
            packet.kind is PacketKind.SCALAR
            and packet.needs_ack
            and not self.params.scalar_ack_on_insert
        ):
            self._emit_scalar_ack(packet)
        self._drain()
        return packet

    def accepted(self, packet: Packet) -> None:
        super().accepted(packet)
        self._drain()

    # ------------------------------------------------------------- queries
    @property
    def guarantees_order(self) -> bool:
        return True

    @property
    def outstanding(self) -> int:
        """Scalar packets currently unacknowledged (<= O, an invariant)."""
        return len(self.opt)

    @property
    def pending_out(self) -> int:
        return len(self.pool) + (1 if self._data_streaming else 0)

    def stall_notes(self) -> List[str]:
        notes = []
        if len(self.opt):
            notes.append(
                "unacked scalar destinations: "
                + ", ".join(str(d) for d in sorted(self.opt))
            )
        for dialog in self.rx_dialogs.values():
            notes.append(
                f"rx dialog #{dialog.dialog} from {dialog.src} waiting for "
                f"seq {dialog.next_deliver_seq} ({len(dialog.buffers)} buffered)"
            )
        if len(self.pool):
            notes.append(f"{len(self.pool)} packet(s) queued in the pool")
        return notes
