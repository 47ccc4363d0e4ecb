"""Network packets and their NIFDY-visible header fields.

Packet framing follows the paper:

* Data packets are either *scalar* or *bulk* (Section 2).  Every data packet
  carries its source node id (needed so the destination can return an ack;
  Section 2.2 argues this costs nothing because active-message layers carry
  the source anyway).  Bulk packets replace the source id with a
  ``{sequence number, dialog number}`` pair; the receiving NIFDY restores the
  source id before handing the packet to the processor, so we keep ``src``
  populated on bulk packets as well and simply note that the header encoding
  differs.
* Header control bits: ``bulk_request`` (sender asks for a dialog),
  ``bulk_exit`` (last packet of a bulk transfer), and -- for the Section 6
  extensions -- ``needs_ack`` and the duplicate-detection ``retx_bit``.
* Acks are NIFDY-generated packets consumed by the receiving NIFDY.  An ack
  may carry a dialog grant/reject and a window credit count.

Sizes: the synthetic workloads use 8-word packets including the header; the
Split-C derived workloads use 6-word packets (Section 3).  A flit is one word
(4 bytes), matching the paper's wormhole mesh.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

#: Bytes per flit.  The paper's mesh uses a one-word (32-bit) flit.
FLIT_BYTES = 4

#: Words per packet for the pseudo-random synthetic traffic (Section 3).
SYNTHETIC_PACKET_WORDS = 8

#: Words per packet for the CMAM / Split-C derived traffic (Section 3).
SPLITC_PACKET_WORDS = 6

#: Acks are header-only: source id, control bits, dialog number and credit
#: count fit in one 32-bit word (16-bit node ids, Section 2.3).
ACK_WORDS = 1

#: Logical network ids (Section 3: request and reply networks exist on every
#: topology to avoid fetch deadlock).  NIFDY acks travel on the reply network.
REQUEST_NET = 0
REPLY_NET = 1


class PacketKind(Enum):
    """What a packet is, as seen by the NIC protocol engine."""

    SCALAR = "scalar"
    BULK = "bulk"
    ACK = "ack"
    COLLECTIVE = "collective"


_packet_ids = itertools.count()


@dataclass
class AckInfo:
    """Protocol content of an ack packet.

    ``credits`` is the number of new window slots granted (for bulk dialogs,
    one ack per W/2 delivered packets).  ``dialog_granted`` is the dialog
    number assigned by the receiver, ``dialog_rejected`` signals that all D
    dialog slots were busy.  ``acked_dst`` is the node whose OPT entry this
    ack clears (i.e. the sender of the original data packet sees ``src`` of
    the ack).
    """

    for_scalar: bool = True
    credits: int = 0
    dialog: Optional[int] = None
    dialog_granted: Optional[int] = None
    dialog_rejected: bool = False
    dialog_terminated: bool = False
    acked_seq: Optional[int] = None
    acked_bit: Optional[int] = None   # retx-bit of the scalar packet acked
    #: Eunomia-style selective ack: stream sequence numbers held in the
    #: receiver's reorder buffer beyond the cumulative ack (a bitmap in
    #: hardware; a tuple here).  ``None`` on cumulative-only receivers.
    sack: Optional[tuple] = None


#: Collective packets are header-only like acks: phase bit, epoch, op code
#: and one combined machine word of contribution fit alongside the node ids.
COLLECTIVE_WORDS = 2


@dataclass
class CollectiveInfo:
    """Protocol content of a NIC-generated collective packet.

    ``phase`` is ``"up"`` (a combined contribution climbing the k-ary tree
    on the request network -- the ack IS the reduction op) or ``"down"``
    (the root's release broadcasting down the tree on the reply network).
    ``epoch`` numbers successive collectives so a fast child running one
    barrier ahead cannot be confused with a duplicate.  ``value`` is the
    combined partial (``None`` for a pure barrier), ``count`` the number of
    leaf contributions folded into it.
    """

    phase: str = "up"
    epoch: int = 0
    op: str = "sum"
    value: Optional[int] = None
    count: int = 1


@dataclass
class Packet:
    """One network packet.

    ``size_bytes`` includes the header; the number of flits a packet occupies
    is ``ceil(size_bytes / FLIT_BYTES)``.
    """

    src: int
    dst: int
    kind: PacketKind
    size_bytes: int
    logical_net: int = REQUEST_NET
    # --- NIFDY header bits -------------------------------------------------
    bulk_request: bool = False
    bulk_exit: bool = False
    needs_ack: bool = True
    seq: Optional[int] = None          # bulk sequence number
    dialog: Optional[int] = None       # bulk dialog number
    retx_bit: int = 0                  # duplicate detection (Section 6.2)
    #: Reorder-tolerant receivers: the sender's lowest unacked stream seq at
    #: transmit time.  Lets a receiver skip holes the sender abandoned (the
    #: stream analogue of NIFDY's dialog teardown).
    stream_base: Optional[int] = None
    is_retransmission: bool = False
    control_only: bool = False         # NIC-generated, never shown to processor
    ack: Optional[AckInfo] = None      # set when kind == ACK
    coll: Optional[CollectiveInfo] = None  # set when kind == COLLECTIVE
    #: Section 6.1 extension: an ack riding in a data packet's header
    #: ("instead of sending both a NIFDY-generated ack and a user reply we
    #: could piggyback the ack in the reply").
    piggyback_ack: Optional[AckInfo] = None
    # --- workload-level identity (not transmitted; used for checking) ------
    msg_id: int = -1                   # message this packet belongs to
    msg_seq: int = 0                   # position within the message
    msg_len: int = 1                   # packets in the message
    pair_seq: int = -1                 # per (src, dst) send order, for checks
    payload: Any = None
    # --- bookkeeping --------------------------------------------------------
    uid: int = field(default_factory=lambda: next(_packet_ids))
    created_cycle: int = -1
    injected_cycle: int = -1
    ejected_cycle: int = -1        # tail flit assembled at destination NIC
    delivered_cycle: int = -1
    abandoned_cycle: int = -1      # sender wrote the delivery debt off
    #: Flits this packet occupies on a link, ``ceil(size_bytes /
    #: FLIT_BYTES)``: derived once here, read on every flit hop.
    flits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("packet must have a positive size")
        if self.kind is PacketKind.ACK and self.ack is None:
            raise ValueError("ack packets must carry AckInfo")
        if self.kind is PacketKind.COLLECTIVE and self.coll is None:
            raise ValueError("collective packets must carry CollectiveInfo")
        self.flits = -(-self.size_bytes // FLIT_BYTES)

    @property
    def is_data(self) -> bool:
        return self.kind is not PacketKind.ACK

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.kind is PacketKind.BULK:
            extra = f" seq={self.seq} dlg={self.dialog}"
        if self.bulk_request:
            extra += " REQ"
        if self.bulk_exit:
            extra += " EXIT"
        return (
            f"<Packet#{self.uid} {self.kind.value} {self.src}->{self.dst}"
            f" {self.flits}f{extra}>"
        )


def make_collective(src: int, dst: int, info: CollectiveInfo) -> Packet:
    """Build a NIC-generated collective packet.

    Contributions climb the combining tree on the request network; releases
    broadcast down on the reply network (the same data/ack split that keeps
    NIFDY acks deadlock-free keeps collective releases deadlock-free).
    Collective packets are control traffic: never shown to the processor's
    receive path, never acked (the tree's own retransmit timers cover loss).
    """
    return Packet(
        src=src,
        dst=dst,
        kind=PacketKind.COLLECTIVE,
        size_bytes=COLLECTIVE_WORDS * FLIT_BYTES,
        logical_net=REQUEST_NET if info.phase == "up" else REPLY_NET,
        needs_ack=False,
        control_only=True,
        coll=info,
    )


def make_ack(src: int, dst: int, info: AckInfo) -> Packet:
    """Build a NIFDY ack packet from ``src`` (the receiver of the data) back
    to ``dst`` (the original sender).  Acks ride the reply network."""
    return Packet(
        src=src,
        dst=dst,
        kind=PacketKind.ACK,
        size_bytes=ACK_WORDS * FLIT_BYTES,
        logical_net=REPLY_NET,
        needs_ack=False,
        ack=info,
    )
