"""Physical links with virtual channels and credit-based flow control.

A :class:`Link` is a unidirectional channel between an upstream *feeder*
(a router input unit or a NIC injection port) and a downstream *sink*
(a router input port or a NIC ejection port).  Links are the only place
bandwidth is spent: one flit crosses the wire every ``cycles_per_flit``
cycles, where a flit is one 32-bit word and the paper's links are 8 bits
wide (4 bits for the CM-5 network).

Virtual channels share the physical wire flit-by-flit (demand multiplexing,
round-robin among VCs that have both a flit ready and a downstream credit).
Each VC is *allocated* to one packet at a time -- from the cycle its head
flit is granted until its tail flit has been delivered into the downstream
buffer -- which gives wormhole semantics: a blocked packet keeps its chain
of VCs and buffers, producing the secondary blocking the paper studies.

The request/reply logical networks (Section 3) are carried as disjoint VC
groups on the same link (demand multiplexed).  The CM-5's strictly
time-multiplexed networks are modelled by the network builder as two
half-bandwidth links instead.

Lossy-network support (Section 6.2): a link may be given a ``drop_prob``;
the drop decision is made once per packet when its head flit is granted,
the packet's flits then consume wire bandwidth but are never delivered.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Sequence

from ..obs.events import EventKind
from ..packets import FLIT_BYTES, Packet
from ..sim import Simulator


class VirtualChannel:
    """Everything one VC of a :class:`Link` keeps, in one record.

    The per-flit hop reads and writes only these slots and the few the
    link itself holds (``_busy``, ``_nready``, ``_rr_order``,
    ``_wire_vc``), so arbitration, the credit return upstream and the
    cut-through hand-off each follow one reference instead of indexing
    parallel per-VC lists.
    """

    __slots__ = ("link", "index", "owner", "flits", "feeder", "up", "forward",
                 "out", "credits", "ready", "sent", "dropping", "accept",
                 "rr_next")

    def __init__(self, link: "Link", index: int, credits: int) -> None:
        self.link = link
        self.index = index
        #: The packet the VC is allocated to (None: free) and its length.
        self.owner: Optional[Packet] = None
        self.flits = 0
        self.feeder: Optional["FlitFeeder"] = None
        #: The upstream VC each taken flit returns its credit to, captured
        #: from the feeder at allocation (None: a NIC, no upstream buffer).
        self.up: Optional["VirtualChannel"] = None
        #: Cut-through binding (see :meth:`Link.forward`): the downstream
        #: transit whose flits this VC hands straight to ``out``, the VC
        #: the transit won on its out link.
        self.forward = None
        self.out: Optional["VirtualChannel"] = None
        #: Free slots in the downstream buffer.
        self.credits = credits
        #: Flits the feeder has announced but the wire has not yet taken:
        #: the upstream twin of ``credits``.
        self.ready = 0
        #: Flits taken from the current owner (head/tail sequencing).
        self.sent = 0
        self.dropping = False
        #: The sink's accept for this VC (see :meth:`Link.set_sink`).
        self.accept: Optional[Callable] = None
        #: Round-robin visit order after this VC wins the wire:
        #: ``(index+1, ..., n-1, 0, ..., index)``, as records.
        self.rr_next: tuple = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VC {self.link.name}:{self.index} owner={self.owner}>"


class FlitFeeder:
    """Upstream side of a link.  It announces flits with
    :meth:`Link.notify_flit_ready`; the link sequences them itself and
    returns each taken flit's credit to ``credit_link``/``credit_vc``, the
    buffer the flit leaves (``None`` for a NIC: no upstream buffer).
    """

    credit_link: Optional["Link"] = None
    credit_vc = 0

    def tail_taken(self, link: "Link", vc: int) -> None:
        """The wire took this packet's tail flit (once per packet)."""
        raise NotImplementedError


class FlitSink:
    """Downstream side of a link: receives flits into a bounded buffer."""

    def accept_flit(
        self, port: int, vc: int, packet: Packet, is_head: bool, is_tail: bool
    ) -> None:
        raise NotImplementedError

    def flit_target(self, port: int, vc: int):
        """A per-``(port, vc)`` accept callable ``(packet, is_head,
        is_tail) -> None`` equivalent to :meth:`accept_flit` with ``port``
        and ``vc`` pre-bound, or ``None`` (the default) for the link to
        bind :meth:`accept_flit` itself.  Lets a sink with per-VC state
        (a router's input units, a NIC's ejection VCs) skip the per-flit
        port/VC dispatch.
        """
        return None


class Link:
    """One unidirectional physical channel."""

    __slots__ = (
        "sim",
        "name",
        "width_bytes",
        "cycles_per_flit",
        "vc_count",
        "net_of_vc",
        "sink",
        "sink_port",
        "_vcs",
        "_vcs_by_net",
        "_nready",
        "_vc_capacity",
        "_busy",
        "_wire_vc",
        "_rr_order",
        "_post_complete",
        "_alloc_waiters",
        "drop_prob",
        "_drop_rng",
        "fault_drop_prob",
        "_fault_drop_rng",
        "_fault_drop_data",
        "_fault_drop_acks",
        "failed",
        "_last_start",
        "flits_carried",
        "packets_carried",
        "packets_dropped",
        "obs",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        width_bytes: int,
        vc_count: int,
        vc_buffer_flits: int,
        sink: Optional[FlitSink],
        sink_port: int,
        net_of_vc: Optional[Sequence[int]] = None,
        drop_prob: float = 0.0,
        drop_rng=None,
        cycles_per_flit: Optional[int] = None,
    ) -> None:
        if width_bytes <= 0 or vc_count <= 0 or vc_buffer_flits <= 0:
            raise ValueError("link parameters must be positive")
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(
                f"drop probability must be in [0, 1], got {drop_prob}"
            )
        if drop_prob > 0.0 and drop_rng is None:
            # Fail at construction, not at the first head flit: a lossy
            # link needs its random stream the same way set_fault_drop does.
            raise ValueError("a lossy link (drop_prob > 0) needs a drop_rng")
        self.sim = sim
        self.name = name
        self.width_bytes = width_bytes
        if cycles_per_flit is not None:
            # Explicit override: used for sub-byte widths (the CM-5's 4-bit
            # links) and for its strictly time-multiplexed logical networks.
            self.cycles_per_flit = cycles_per_flit
        else:
            self.cycles_per_flit = max(1, -(-FLIT_BYTES // width_bytes))
        self.vc_count = vc_count
        self.net_of_vc = list(net_of_vc) if net_of_vc is not None else [0] * vc_count
        if len(self.net_of_vc) != vc_count:
            raise ValueError("net_of_vc must have one entry per VC")
        vcs = self._vcs = tuple(
            VirtualChannel(self, vc, vc_buffer_flits) for vc in range(vc_count)
        )
        for vc in vcs:
            vc.rr_next = vcs[vc.index + 1:] + vcs[:vc.index + 1]
        #: Visit order of the next arbitration: VC 0 first.
        self._rr_order = vcs
        self._vcs_by_net = {}
        #: ``sum(vc.ready)``: a kick with nothing announced cannot move a flit.
        self._nready = 0
        self._vc_capacity = vc_buffer_flits
        self._busy = False
        #: The VC of the one flit on the wire while ``_busy``.
        self._wire_vc = vcs[0]
        # The _kick/_complete pair runs once per flit (the hottest path in
        # the whole simulator); the kernel hands over a poster for the
        # completion that allocates nothing per call.  It returns the
        # current cycle, which the overclock guard reads.
        self._post_complete = sim.poster(self.cycles_per_flit, self._complete)
        self.sink: Optional[FlitSink] = None
        self.sink_port = sink_port
        if sink is not None:
            self.set_sink(sink, sink_port)
        self._alloc_waiters: List[Callable[[], None]] = []
        self.drop_prob = drop_prob
        self._drop_rng = drop_rng
        self.fault_drop_prob = 0.0
        self._fault_drop_rng = None
        self._fault_drop_data = True
        self._fault_drop_acks = True
        self.failed = False
        #: Cycle the wire last started a flit transfer (a never-used wire
        #: reads a full flit time before cycle 0).  A dedicated sentinel
        #: (not a stats counter) so resetting or sharing the counters can
        #: neither blind the overclock guard nor make it fire spuriously.
        self._last_start = -self.cycles_per_flit
        # statistics
        self.flits_carried = 0
        self.packets_carried = 0
        self.packets_dropped = 0
        #: Protocol event bus; None = un-instrumented (the common case).
        self.obs = None

    def set_sink(self, sink: FlitSink, sink_port: int = 0) -> None:
        """Bind the downstream consumer: one accept callable per VC, taken
        once from ``sink.flit_target`` (or ``sink.accept_flit`` with the
        port and VC pre-bound), so a flit's delivery does no dispatch.

        NIC ejection links are built with the topology, before NICs exist,
        and get their sink here; a router calls this from
        ``attach_in_link`` once its input units exist.
        """
        self.sink = sink
        self.sink_port = sink_port
        for vc in self._vcs:
            vc.accept = (
                sink.flit_target(sink_port, vc.index)
                or functools.partial(sink.accept_flit, sink_port, vc.index)
            )

    # ------------------------------------------------------------------ VCs
    def vcs_for_net(self, net: int) -> List[int]:
        """Indices of VCs belonging to logical network ``net``.

        Cached (the VC layout is fixed at construction); callers treat the
        result as read-only.
        """
        group = self._vcs_by_net.get(net)
        if group is None:
            group = [i for i, n in enumerate(self.net_of_vc) if n == net]
            self._vcs_by_net[net] = group
        return group

    def vc_free(self, vc: int) -> bool:
        return self._vcs[vc].owner is None

    def owner(self, vc: int) -> Optional[Packet]:
        return self._vcs[vc].owner

    def flits_taken(self, vc: int) -> int:
        """Flits the wire has taken from ``vc``'s current owner."""
        return self._vcs[vc].sent

    def fail(self) -> None:
        """Take this link out of service (Section 1.1: network faults).

        A failed link accepts no new packets; routes with alternative
        candidates (fat-tree up-paths, multibutterfly copies, adaptive mesh
        VCs) flow around it.  Failing a link that is some pair's only path
        partitions the network for that pair -- the caller's responsibility.
        Packets already holding the link finish crossing it.
        """
        self.failed = True

    def repair(self) -> None:
        """Return a failed link to service (the other half of a fault event).

        Upstream feeders that found every VC refused while the link was down
        registered alloc waiters; firing them here lets blocked routers and
        NICs re-try immediately instead of waiting for an unrelated VC
        release.  Safe to call on a healthy link (no-op beyond the kick).
        """
        self.failed = False
        if self._alloc_waiters:
            waiters = self._alloc_waiters
            self._alloc_waiters = []
            for fn in waiters:
                fn()
        self._kick()

    def set_fault_drop(
        self, prob: float, rng=None, data: bool = True, acks: bool = True
    ) -> None:
        """Start a transient loss episode on this link.

        Unlike the constructor's static ``drop_prob`` (which models a
        permanently unreliable fabric and only ever discards data packets),
        a fault-injected burst can also claim acks -- the ack-network-only
        loss scenario that exercises the duplicate-elimination path.
        """
        if not 0.0 <= prob <= 1.0:
            raise ValueError("drop probability must be in [0, 1]")
        self.fault_drop_prob = prob
        if rng is not None:
            self._fault_drop_rng = rng
        elif self._fault_drop_rng is None:
            self._fault_drop_rng = self._drop_rng
        if prob > 0.0 and self._fault_drop_rng is None:
            raise ValueError("a loss burst needs a random stream")
        self._fault_drop_data = data
        self._fault_drop_acks = acks

    def clear_fault_drop(self) -> None:
        """End a transient loss episode (packets in flight are unaffected)."""
        self.fault_drop_prob = 0.0

    def _decide_drop(self, packet: Packet) -> bool:
        if self.drop_prob > 0.0 and packet.is_data:
            if self._drop_rng.random() < self.drop_prob:
                return True
        if self.fault_drop_prob > 0.0:
            applies = self._fault_drop_data if packet.is_data else self._fault_drop_acks
            if applies and self._fault_drop_rng.random() < self.fault_drop_prob:
                return True
        return False

    def allocate_vc(
        self, packet: Packet, feeder: FlitFeeder, candidates: Sequence[int]
    ) -> Optional[int]:
        """Try to allocate one of ``candidates`` to ``packet``.

        Returns the VC index, or None if all candidates are held by other
        packets.  The caller may register with :meth:`add_alloc_waiter` to be
        re-tried when a VC frees.
        """
        if self.failed:
            return None
        vcs = self._vcs
        for index in candidates:
            vc = vcs[index]
            if vc.owner is None:
                vc.owner = packet
                vc.flits = packet.flits
                vc.feeder = feeder
                up = feeder.credit_link
                vc.up = up._vcs[feeder.credit_vc] if up is not None else None
                if self.drop_prob > 0.0 or self.fault_drop_prob > 0.0:
                    vc.dropping = self._decide_drop(packet)
                return index
        return None

    def add_alloc_waiter(self, fn: Callable[[], None]) -> None:
        """Call ``fn`` next time a VC on this link is released."""
        self._alloc_waiters.append(fn)

    def forward(self, vc: int, transit) -> None:
        """Bind ``vc`` to a downstream cut-through ``transit`` until its
        tail arrives.

        The sink calls this when the packet now arriving on ``vc`` has won
        an out VC before its tail arrived.  Each further flit of it then
        skips the sink's accept: the link counts it into
        ``transit.flits_arrived`` (and ``tail_arrived``) and announces it
        on ``transit.out_link``/``out_vc`` itself, which is all the accept
        would have done.
        """
        record = self._vcs[vc]
        record.forward = transit
        record.out = transit.out_link._vcs[transit.out_vc]

    # ------------------------------------------------------------ data path
    def notify_flit_ready(self, vc: int, n: int = 1) -> None:
        """Feeder announces ``n`` more flits on ``vc``; try to transfer."""
        self._vcs[vc].ready += n
        self._nready += n
        if not self._busy:
            self._kick()

    def return_credits(self, vc: int, n: int = 1) -> None:
        """Sink signals that ``n`` flits left the downstream buffer of
        ``vc`` (a NIC releases a whole ejected packet at once).

        Exactly ``n`` single-credit calls in one: one overflow check and
        at most one kick.  A kick chooses among the VCs with a flit
        announced and ``credits > 0``, so the credits after the first
        cannot change its choice; and if it takes a flit the wire is busy,
        which made every later per-credit kick a no-op.  If it takes
        nothing, no VC had a flit and a credit -- ``vc`` itself then has
        nothing announced -- so the later kicks took nothing either.
        """
        record = self._vcs[vc]
        if record.credits + n > self._vc_capacity:
            raise RuntimeError(f"{self.name}: credit overflow on VC {vc}")
        record.credits += n
        if self._nready and not self._busy:
            self._kick()

    return_credit = return_credits

    def _kick(self) -> None:
        # The per-flit callers test _busy before calling; this guard is for
        # repair() and for the cyclic-topology re-entry described below.
        if self._busy:
            return
        for vc in self._rr_order:
            if vc.ready and (vc.credits > 0 or vc.dropping):
                break
        else:
            return
        self._rr_order = vc.rr_next
        vc.ready -= 1
        self._nready -= 1
        if not vc.dropping:
            vc.credits -= 1
        # Mark the wire busy BEFORE taking the flit: the taken flit returns
        # a credit upstream, and on cyclic topologies that credit-return
        # chain can run all the way around a ring and re-enter this link's
        # _kick within the same call stack.  Claiming the wire first makes
        # the re-entry a no-op instead of a double transfer.
        self._busy = True
        self._wire_vc = vc
        vc.sent = sent = vc.sent + 1
        up = vc.up
        if up is not None:
            # The flit left the feeder's buffer: return_credit, inlined.
            up_link = up.link
            if up.credits >= up_link._vc_capacity:
                raise RuntimeError(
                    f"{up_link.name}: credit overflow on VC {up.index}")
            up.credits += 1
            if up_link._nready and not up_link._busy:
                up_link._kick()
        self.flits_carried += 1
        if sent == vc.flits:
            vc.feeder.tail_taken(self, vc.index)
        now = self._post_complete()
        if now - self._last_start < self.cycles_per_flit:
            raise RuntimeError(f"{self.name}: wire overclocked (double transfer)")
        self._last_start = now

    def _complete(self) -> None:
        # One flit on the wire at a time: this is the last one _kick took.
        self._busy = False
        vc = self._wire_vc
        packet = vc.owner
        sent = vc.sent
        is_tail = sent == vc.flits
        dropping = vc.dropping
        if is_tail:
            # Release the VC before delivering the tail flit: delivery may
            # trigger the downstream packet to advance and a waiter to want
            # this VC in the same cycle.
            if vc.ready:
                raise RuntimeError(f"{self.name}: VC {vc.index} released "
                                   "with announced flits untaken")
            vc.owner = None
            vc.feeder = None
            vc.up = None
            vc.sent = 0
            vc.dropping = False
            self.packets_carried += 1
            if dropping:
                self.packets_dropped += 1
                if self.obs is not None:
                    self.obs.emit(
                        self.sim.now, EventKind.LINK_DROP, -1,
                        uid=packet.uid, src=packet.src, dst=packet.dst,
                        info=self.name,
                    )
            if self._alloc_waiters:
                waiters = self._alloc_waiters
                self._alloc_waiters = []
                for fn in waiters:
                    fn()
        if not dropping:
            transit = vc.forward
            if transit is None:
                vc.accept(packet, sent == 1, is_tail)
            else:
                # A cut-through body flit (see forward()): the sink's
                # accept, done here.
                if transit.packet is not packet:
                    raise RuntimeError(
                        f"{self.name}: VC {vc.index} interleaved flits of "
                        f"{packet} into {transit.packet}"
                    )
                transit.flits_arrived += 1
                out = vc.out
                if is_tail:
                    transit.tail_arrived = True
                    vc.forward = vc.out = None
                out.ready += 1
                out_link = out.link
                out_link._nready += 1
                if not out_link._busy:
                    out_link._kick()
        if self._nready and not self._busy:
            self._kick()

    # ------------------------------------------------------------- metrics
    @property
    def busy_cycles(self) -> int:
        """Wire-cycles spent carrying flits (``cycles_per_flit`` is fixed)."""
        return self.flits_carried * self.cycles_per_flit

    def utilization(self, elapsed_cycles: int) -> float:
        """Ratio of busy wire-cycles to elapsed cycles.

        Deliberately NOT clamped to 1.0: a value above 1.0 means the wire
        was charged for more flit-time than physically existed -- exactly
        the double-transfer accounting bug the overclock guard exists to
        catch -- and clamping would silently mask it.  Display code that
        wants a tidy percentage clamps for itself (see
        :func:`repro.metrics.link_utilization_report`).
        """
        if elapsed_cycles <= 0:
            return 0.0
        return self.busy_cycles / elapsed_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} vcs={self.vc_count} busy={self._busy}>"
