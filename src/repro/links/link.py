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

#: Round-robin visit orders shared by every link with the same VC count:
#: ``_rr_orders(n)[s]`` is ``(s, s+1, ..., n-1, 0, ..., s-1)``.  Precomputing
#: them removes the per-candidate modulo from the per-flit arbitration loop.
_RR_ORDER_CACHE = {}


def _rr_orders(n: int):
    orders = _RR_ORDER_CACHE.get(n)
    if orders is None:
        orders = tuple(
            tuple((start + i) % n for i in range(n)) for start in range(n)
        )
        _RR_ORDER_CACHE[n] = orders
    return orders


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
        (a router's input units) skip the per-flit port/VC dispatch.
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
        "_owners",
        "_feeders",
        "_vcs_by_net",
        "_credits",
        "_ready",
        "_nready",
        "_sent",
        "_dropping",
        "_vc_capacity",
        "_busy",
        "_rr",
        "_rr_orders",
        "_post",
        "_complete_cb",
        "_accept",
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
        self._owners: List[Optional[Packet]] = [None] * vc_count
        self._feeders: List[Optional[FlitFeeder]] = [None] * vc_count
        self._vcs_by_net = {}
        self._credits = [vc_buffer_flits] * vc_count
        #: Flits the feeder of each VC has announced but the wire has not
        #: yet taken: the upstream twin of ``_credits``.
        self._ready = [0] * vc_count
        #: ``sum(_ready)``: a kick with nothing announced cannot move a flit.
        self._nready = 0
        #: Flits taken from each VC's current owner (head/tail sequencing).
        self._sent = [0] * vc_count
        self._dropping = [False] * vc_count
        self._vc_capacity = vc_buffer_flits
        self._busy = False
        self._rr = 0
        self._rr_orders = _rr_orders(vc_count)
        # Cached bound methods: the _kick/_complete pair runs once per flit
        # (the hottest path in the whole simulator), and an attribute lookup
        # on `self`/`sim` allocates a fresh bound-method object every time.
        self._post = sim.post
        self._complete_cb = self._complete
        self.sink: Optional[FlitSink] = None
        self.sink_port = sink_port
        #: One bound accept callable per VC (see :meth:`set_sink`).
        self._accept: List[Optional[Callable]] = [None] * vc_count
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
        #: Cycle the wire last started a flit transfer; None = never used.
        #: A dedicated sentinel (not a stats counter) so resetting or
        #: sharing the counters can neither blind the overclock guard nor
        #: make it fire spuriously.
        self._last_start: Optional[int] = None
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
        self._accept = [
            sink.flit_target(sink_port, vc)
            or functools.partial(sink.accept_flit, sink_port, vc)
            for vc in range(self.vc_count)
        ]

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
        return self._owners[vc] is None

    def owner(self, vc: int) -> Optional[Packet]:
        return self._owners[vc]

    def flits_taken(self, vc: int) -> int:
        """Flits the wire has taken from ``vc``'s current owner."""
        return self._sent[vc]

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
        for vc in candidates:
            if self._owners[vc] is None:
                self._owners[vc] = packet
                self._feeders[vc] = feeder
                if self.drop_prob > 0.0 or self.fault_drop_prob > 0.0:
                    self._dropping[vc] = self._decide_drop(packet)
                return vc
        return None

    def add_alloc_waiter(self, fn: Callable[[], None]) -> None:
        """Call ``fn`` next time a VC on this link is released."""
        self._alloc_waiters.append(fn)

    # ------------------------------------------------------------ data path
    def notify_flit_ready(self, vc: int, n: int = 1) -> None:
        """Feeder announces ``n`` more flits on ``vc``; try to transfer."""
        self._ready[vc] += n
        self._nready += n
        if not self._busy:
            self._kick()

    def return_credit(self, vc: int) -> None:
        """Sink signals that one flit left the downstream buffer of ``vc``."""
        if self._credits[vc] >= self._vc_capacity:
            raise RuntimeError(f"{self.name}: credit overflow on VC {vc}")
        self._credits[vc] += 1
        if self._nready and not self._busy:
            self._kick()

    def _kick(self) -> None:
        # The per-flit callers test _busy before calling; this guard is for
        # repair() and for the cyclic-topology re-entry described below.
        if self._busy:
            return
        ready = self._ready
        dropping_flags = self._dropping
        credits = self._credits
        if self.vc_count == 1:
            # Single-VC fast path (every mesh/butterfly wire): no
            # arbitration loop, no round-robin pointer to maintain.
            if not ready[0] or (credits[0] <= 0 and not dropping_flags[0]):
                return
            chosen = 0
        else:
            chosen = -1
            for vc in self._rr_orders[self._rr]:
                if ready[vc] and (credits[vc] > 0 or dropping_flags[vc]):
                    chosen = vc
                    break
            if chosen < 0:
                return
            self._rr = chosen + 1 if chosen + 1 < self.vc_count else 0
        ready[chosen] -= 1
        self._nready -= 1
        if not dropping_flags[chosen]:
            credits[chosen] -= 1
        # Mark the wire busy BEFORE taking the flit: the taken flit returns
        # a credit upstream, and on cyclic topologies that credit-return
        # chain can run all the way around a ring and re-enter this link's
        # _kick within the same call stack.  Claiming the wire first makes
        # the re-entry a no-op instead of a double transfer.
        self._busy = True
        now = self.sim._now
        last = self._last_start
        if last is not None and now - last < self.cycles_per_flit:
            raise RuntimeError(f"{self.name}: wire overclocked (double transfer)")
        self._last_start = now
        self._sent[chosen] = sent = self._sent[chosen] + 1
        feeder = self._feeders[chosen]
        up = feeder.credit_link
        if up is not None:
            # The flit left the feeder's buffer: return_credit, inlined.
            up_vc = feeder.credit_vc
            up_credits = up._credits
            if up_credits[up_vc] >= up._vc_capacity:
                raise RuntimeError(f"{up.name}: credit overflow on VC {up_vc}")
            up_credits[up_vc] += 1
            if up._nready and not up._busy:
                up._kick()
        self.flits_carried += 1
        if sent == self._owners[chosen].flits:
            feeder.tail_taken(self, chosen)
        self._post(self.cycles_per_flit, self._complete_cb, chosen)

    def _complete(self, vc: int) -> None:
        # One flit on the wire at a time: this is the last one _kick took.
        self._busy = False
        packet = self._owners[vc]
        sent = self._sent[vc]
        is_tail = sent == packet.flits
        dropping = self._dropping[vc]
        if is_tail:
            # Release the VC before delivering the tail flit: delivery may
            # trigger the downstream packet to advance and a waiter to want
            # this VC in the same cycle.
            if self._ready[vc]:
                raise RuntimeError(f"{self.name}: VC {vc} released with "
                                   "announced flits untaken")
            self._owners[vc] = None
            self._feeders[vc] = None
            self._sent[vc] = 0
            self._dropping[vc] = False
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
            self._accept[vc](packet, sent == 1, is_tail)
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
