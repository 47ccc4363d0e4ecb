"""Common NIC machinery: injection/ejection plumbing shared by all NICs.

Every NIC variant (plain, buffers-only, NIFDY) sits between a processor and
a router port.  The *injection* side feeds flits onto the node's injection
link(s); the *ejection* side is the sink of the node's ejection link(s),
assembling flits back into packets.  Credits on the ejection link are the
network-visible backpressure: a NIC that leaves an ejected packet unconsumed
(e.g. its arrivals FIFO is full) withholds the credits, which eventually
blocks the network -- the end-point congestion the paper studies.

Most topologies demand-multiplex the request and reply logical networks over
one physical channel, so the NIC has a single injection and a single ejection
link carrying both nets' VCs.  The CM-5 imitation time-multiplexes the nets,
modelled as one half-bandwidth link per net (``attach_injection_pair`` /
``attach_ejection_pair``).

The processor-facing interface is uniform:

* ``try_send(packet)``  -- hand a packet to the NIC; False if the NIC cannot
  buffer it (the processor must retry, typically after polling).
* ``has_arrival()`` / ``receive()`` -- polling reception; ``receive`` pops the
  next in-FIFO packet.  The processor calls :meth:`accepted` once its receive
  overhead has elapsed, which is when NIFDY generates acks (footnote 2 of the
  paper: acking earlier, on FIFO insert, is "surprisingly less effective" --
  we keep that as an ablation flag).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..links import FlitFeeder, FlitSink, Link
from ..obs.events import EventKind
from ..packets import Packet, PacketKind
from ..sim import Simulator


class _ParkedArrivals(deque):
    """Arrivals FIFO of a parked NIC: queueing a packet there raises."""

    def __init__(self, node_id: int):
        super().__init__()
        self.node_id = node_id

    def append(self, packet: Packet) -> None:
        raise RuntimeError(f"idle node {self.node_id} received data: {packet}")


class BaseNIC(FlitFeeder, FlitSink):
    """Plumbing shared by every NIC variant.

    The class attributes below are the state observers, validators and the
    stall report read.  A NIC without the mechanism keeps the default.
    """

    #: NIFDY tuning (:class:`~repro.nic.NifdyParams`) and the sender's OPT
    #: and outgoing pool.
    params = None
    opt = None
    pool = None
    #: Receiver bulk dialogs by dialog id (NIFDY).
    rx_dialogs = None
    #: Receiver streams by source (reorder-tolerant receivers).
    reorder_rx = None
    #: The sender's :class:`~repro.nic.retransmit.RetransmitTimer`.
    retx = None
    # protocol counters
    acks_sent = 0
    acks_received = 0
    bulk_grants = 0
    bulk_rejects = 0
    scalar_sent = 0
    bulk_sent = 0
    duplicates_dropped = 0
    packets_abandoned = 0

    def __init__(self, sim: Simulator, node_id: int):
        self.sim = sim
        self.node_id = node_id
        self._inj_links: List[Link] = []
        self._inj_by_net: Dict[int, Link] = {}
        self._ej_links: Dict[int, Link] = {}
        self._port_retries: set = set()
        # ejection: per-(port, VC) partial packet flit counts
        self._ej_flits: Dict[Tuple[int, int], int] = {}
        # statistics
        self.packets_injected = 0
        self.packets_ejected = 0
        self.packets_accepted = 0
        # hooks for experiment-level accounting
        self.on_accept: Optional[Callable[[Packet], None]] = None
        self.on_inject: Optional[Callable[[Packet], None]] = None
        #: Fired when a data packet's tail flit is assembled at this NIC
        #: (destination-side ejection, before any arrivals-FIFO stall).
        self.on_eject: Optional[Callable[[Packet], None]] = None
        #: Fired when a NIC gives up on delivering a packet (retransmitting
        #: variants with ``on_exhaust="abandon"``); never fires on reliable
        #: NICs, but lives here so collectors can hook every NIC uniformly.
        self.on_abandon: Optional[Callable[[Packet], None]] = None
        #: Protocol event bus (:class:`repro.obs.EventBus`); ``None`` keeps
        #: every emission site a single pointer comparison.
        self.obs = None
        #: NIC-offloaded collective engine
        #: (:class:`repro.nic.collectives.CollectiveEngine`); ``None`` when
        #: collectives run on the host.  Collective packets bypass the
        #: subclass protocol machinery entirely -- they are combined in
        #: dedicated registers, not buffered in the arrivals FIFO.
        self.collective = None

    # ------------------------------------------------------------- wiring
    def attach_injection(self, link: Link) -> None:
        """Single injection link carrying every logical network's VCs."""
        self._inj_links = [link]
        self._inj_by_net = {net: link for net in set(link.net_of_vc)}

    def attach_injection_pair(self, links: Sequence[Link]) -> None:
        """One injection link per logical network (CM-5 time-mux model)."""
        self._inj_links = list(links)
        self._inj_by_net = {}
        for link in links:
            for net in set(link.net_of_vc):
                self._inj_by_net[net] = link

    def attach_ejection(self, link: Link) -> None:
        self._ej_links = {link.sink_port: link}

    def attach_ejection_pair(self, links: Sequence[Link]) -> None:
        self._ej_links = {link.sink_port: link for link in links}

    @property
    def inj_link(self) -> Link:
        """The injection link (single-link topologies)."""
        if len(self._inj_links) != 1:
            raise RuntimeError("NIC has multiple injection links; use per-net")
        return self._inj_links[0]

    def _inj_link_for(self, net: int) -> Link:
        return self._inj_by_net[net]

    # ------------------------------------------------------ injection side
    def _start_injection(self, packet: Packet) -> bool:
        """Begin streaming ``packet`` onto its logical network's link.

        A data packet and an ack can stream concurrently (on different VCs,
        interleaving flits on the wire), but two packets of the same logical
        network serialise.  Returns False when every VC of the packet's
        logical network is busy.
        """
        link = self._inj_link_for(packet.logical_net)
        vc = link.allocate_vc(packet, self, link.vcs_for_net(packet.logical_net))
        if vc is None:
            return False
        packet.injected_cycle = self.sim.now
        if (
            packet.is_data
            and not packet.control_only
            and not packet.is_retransmission
        ):
            if self.on_inject is not None:
                self.on_inject(packet)
            if self.obs is not None:
                self.obs.emit_packet(
                    self.sim.now, EventKind.INJECT, self.node_id, packet
                )
        link.notify_flit_ready(vc, packet.flits)
        return True

    def _injection_port_free(self, net: int) -> bool:
        """True when the link has released some VC of ``net`` (only once
        the last packet's tail flit has fully crossed the wire)."""
        link = self._inj_link_for(net)
        return any(link.vc_free(vc) for vc in link.vcs_for_net(net))

    def _retry_when_port_frees(self, key: str, net: int, fn: Callable[[], None]) -> None:
        """Re-run ``fn`` when an injection VC releases (at most one pending
        retry per ``key``, so repeated pump attempts don't pile up)."""
        if key in self._port_retries:
            return
        self._port_retries.add(key)

        def _fire() -> None:
            self._port_retries.discard(key)
            fn()

        self._inj_link_for(net).add_alloc_waiter(_fire)

    # FlitFeeder interface ---------------------------------------------------
    def tail_taken(self, link: Link, vc: int) -> None:
        self.packets_injected += 1
        # Let the subclass queue the next packet for this VC.
        self.sim.post(0, self._dispatch_injection_complete, link.owner(vc))

    def _dispatch_injection_complete(self, packet: Packet) -> None:
        """Route a finished injection to its owner.

        Collective packets belong to the collective engine's private pump;
        handing them to the subclass would confuse protocol state machines
        that match completions against their own queues."""
        if packet.kind is PacketKind.COLLECTIVE:
            if self.collective is not None:
                self.collective.on_injection_complete(packet)
            return
        self._on_injection_complete(packet)

    def _on_injection_complete(self, packet: Packet) -> None:
        """Called (next cycle) after a packet's tail left the NIC."""

    # ------------------------------------------------------- ejection side
    # FlitSink interface
    def accept_flit(
        self, port: int, vc: int, packet: Packet, is_head: bool, is_tail: bool
    ) -> None:
        key = (port, vc)
        self._ej_flits[key] = self._ej_flits.get(key, 0) + 1
        if is_tail:
            if self._ej_flits[key] < packet.flits:
                # Flits of a packet arrive contiguously per VC.
                raise RuntimeError(
                    f"node {self.node_id}: tail before all flits of {packet}"
                )
            self._ej_flits[key] -= packet.flits
            self.packets_ejected += 1
            if packet.is_data and not packet.control_only:
                packet.ejected_cycle = self.sim.now
                if self.on_eject is not None:
                    self.on_eject(packet)
                if self.obs is not None:
                    self.obs.emit_packet(
                        self.sim.now, EventKind.EJECT, self.node_id, packet
                    )
            if packet.kind is PacketKind.COLLECTIVE:
                # Combined in dedicated registers: credits return at once,
                # the subclass arrivals machinery never sees the packet.
                self._release_ejection(packet, vc, port)
                if self.collective is None:
                    raise RuntimeError(
                        f"node {self.node_id}: collective packet {packet} "
                        "arrived but no collective engine is attached"
                    )
                self.collective.on_packet(packet)
                return
            self._on_packet_ejected(packet, vc, port)

    def _release_ejection(self, packet: Packet, vc: int, port: int = 0) -> None:
        """Return the ejection-buffer credits held by ``packet``."""
        link = self._ej_links[port]
        for _ in range(packet.flits):
            link.return_credit(vc)

    def _on_packet_ejected(self, packet: Packet, vc: int, port: int) -> None:
        raise NotImplementedError

    def _note_duplicate(self, packet: Packet) -> None:
        """A retransmitting receiver dropped a copy it already had."""
        self.duplicates_dropped += 1
        if self.obs is not None:
            self.obs.emit_packet(
                self.sim.now, EventKind.DUPLICATE, self.node_id, packet
            )

    def _note_abandon(self, packet: Packet) -> None:
        """A retransmitting sender gave up on ``packet``: count it and tell
        the ``on_abandon`` hook and the bus."""
        self.packets_abandoned += 1
        packet.abandoned_cycle = self.sim.now
        if self.on_abandon is not None:
            self.on_abandon(packet)
        if self.obs is not None:
            self.obs.emit_packet(
                self.sim.now, EventKind.ABANDON, self.node_id, packet
            )

    # --------------------------------------------------- processor interface
    def try_send(self, packet: Packet) -> bool:
        raise NotImplementedError

    def can_send(self) -> bool:
        """Cheap check used by processors to avoid building a packet early."""
        raise NotImplementedError

    def has_arrival(self) -> bool:
        raise NotImplementedError

    def receive(self) -> Optional[Packet]:
        raise NotImplementedError

    def park(self) -> None:
        """This node is unpopulated: its processor never runs, so a data
        packet becoming receivable here is a bug and raises at once.  Every
        variant keeps the processor's arrivals FIFO in ``_arrivals``; acks
        and collective packets never enter it."""
        self._arrivals = _ParkedArrivals(self.node_id)

    def accepted(self, packet: Packet) -> None:
        """Processor finished its receive overhead for ``packet``."""
        self.packets_accepted += 1
        packet.delivered_cycle = self.sim.now
        if self.on_accept is not None:
            self.on_accept(packet)
        if self.obs is not None:
            self.obs.emit_packet(
                self.sim.now, EventKind.ACCEPT, self.node_id, packet
            )

    # ------------------------------------------------------------- queries
    @property
    def guarantees_order(self) -> bool:
        """Whether software may rely on per-sender in-order delivery."""
        return False

    @property
    def retransmissions(self) -> int:
        return self.retx.retransmissions if self.retx is not None else 0

    @property
    def rtt_samples(self) -> int:
        return self.retx.rtt_samples if self.retx is not None else 0

    def stall_notes(self) -> List[str]:
        """What protocol state this NIC still holds, for a stall report."""
        return []
