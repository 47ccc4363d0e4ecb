"""Generic router: per-VC input units, routing, and output allocation.

A router owns one :class:`InputUnit` per (input port, VC).  Forwarding is
wormhole/virtual-cut-through by default -- a packet may start leaving as soon
as its head flit is buffered -- or store-and-forward (``mode="sf"``), where a
packet must be fully buffered before it competes for an output.

Routing is supplied by the topology (a callable): given the packet, input
port and input VC it returns an ordered list of ``(out_link, vc_candidates)``
choices.  Deterministic routers return one choice; adaptive routers (fat-tree
up-path, multibutterfly) return several and the first choice with a free VC
wins, so packets between the same pair of nodes can take different paths and
arrive out of order -- the situation NIFDY's reordering handles.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..links import FlitFeeder, FlitSink, Link
from ..obs.events import EventKind
from ..packets import Packet
from ..sim import Simulator

#: A routing choice: (output link, candidate VC indices on that link).
RouteChoice = Tuple[Link, Sequence[int]]

#: Topology routing function.
RouteFn = Callable[["Router", Packet, int, int], List[RouteChoice]]

CUTTHROUGH = "cutthrough"
STORE_AND_FORWARD = "sf"


class _Transit:
    """State of one packet occupying an input unit's buffer."""

    __slots__ = (
        "packet",
        "flits_arrived",
        "tail_arrived",
        "route_ready",
        "routing_scheduled",
        "choices",
        "out_link",
        "out_vc",
        "waiting_for_vc",
    )

    def __init__(self, packet: Packet):
        self.packet = packet
        self.flits_arrived = 0
        self.tail_arrived = False
        self.route_ready = False
        self.routing_scheduled = False
        self.choices: List[RouteChoice] = []
        self.out_link: Optional[Link] = None
        self.out_vc = -1
        self.waiting_for_vc = False


class InputUnit(FlitFeeder):
    """Buffer + forwarding state machine for one (port, VC) of a router."""

    __slots__ = ("router", "port", "vc", "in_link", "credit_link",
                 "credit_vc", "queue")

    def __init__(self, router: "Router", port: int, vc: int, in_link: Link):
        self.router = router
        self.port = port
        self.vc = vc
        self.in_link = in_link
        # A flit the out link takes frees one slot of this buffer.
        self.credit_link = in_link
        self.credit_vc = vc
        self.queue: Deque[_Transit] = deque()

    # ----------------------------------------------------------- sink side
    def accept_flit(self, packet: Packet, is_head: bool, is_tail: bool) -> None:
        if is_head:
            self.queue.append(_Transit(packet))
        transit = self.queue[-1]
        if transit.packet is not packet:
            raise RuntimeError(
                f"router {self.router.rid} port {self.port} vc {self.vc}: "
                f"interleaved flits of {packet} into {transit.packet}"
            )
        transit.flits_arrived += 1
        if is_tail:
            transit.tail_arrived = True
        # A head-of-queue packet with an out VC gets its further flits
        # from the in link's forward binding, never through here.  Only
        # the head (and, store-and-forward, the tail) can start routing; a
        # later flit cannot make allocation win (see _try_allocate).
        if (is_head or is_tail and self.router.mode == STORE_AND_FORWARD) \
                and transit is self.queue[0]:
            self._advance_head()

    # ------------------------------------------------------- head handling
    def _advance_head(self) -> None:
        if not self.queue:
            return
        transit = self.queue[0]
        if transit.out_link is not None:
            # Only a new head gets here, and only a head gets an out link:
            # announcing its flits again would double-count them.
            raise RuntimeError(f"{transit.packet} already holds an out VC")
        if self.router.mode == STORE_AND_FORWARD and not transit.tail_arrived:
            return
        if not transit.route_ready:
            if not transit.routing_scheduled:
                transit.routing_scheduled = True
                delay = self.router.route_delay
                if self.router.route_jitter:
                    delay += self.router.jitter_rng.randrange(
                        self.router.route_jitter + 1
                    )
                # post(): route completions fire once per packet per hop and
                # are never cancelled.
                self.router.sim.post(delay, self._route_done, transit)
            return
        self._try_allocate(transit)

    def _route_done(self, transit: _Transit) -> None:
        if not self.queue or self.queue[0] is not transit:
            raise RuntimeError("routing completed for a packet that moved on")
        transit.route_ready = True
        transit.choices = self.router.route(transit.packet, self.port, self.vc)
        if not transit.choices:
            raise RuntimeError(
                f"router {self.router.rid}: no route for {transit.packet} "
                f"arriving on port {self.port}"
            )
        self._try_allocate(transit)

    def _try_allocate(self, transit: _Transit) -> None:
        """Claim an out VC for the head packet, or wait for a release.

        Invariant: between VC releases, a waiting head has no free
        candidate VC on any of its choice links.  A failed attempt
        registers a waiter on every choice link, and every VC release
        (``Link._complete`` at a tail) and every ``Link.repair()`` fires
        all of that link's waiters.  So a re-try that one of those did
        not trigger cannot win, and a body flit reaching a waiting head
        does not re-try (see :meth:`accept_flit`).
        """
        for link, vc_candidates in transit.choices:
            vc = link.allocate_vc(transit.packet, self, vc_candidates)
            if vc is not None:
                transit.out_link = link
                transit.out_vc = vc
                transit.waiting_for_vc = False
                if not transit.tail_arrived:
                    # Cut-through: the in link hands the rest of the
                    # packet's flits straight to the out link.
                    self.in_link.forward(self.vc, transit)
                # Nothing has been taken yet: every arrived flit is ready.
                link.notify_flit_ready(vc, transit.flits_arrived)
                return
        if not transit.waiting_for_vc:
            transit.waiting_for_vc = True
            obs = self.router.obs
            if obs is not None:
                packet = transit.packet
                obs.emit(
                    self.router.sim.now, EventKind.ROUTER_BLOCK, -1,
                    uid=packet.uid, src=packet.src, dst=packet.dst,
                    info=f"r{self.router.rid}:p{self.port}:v{self.vc}",
                )
            for link, _ in transit.choices:
                link.add_alloc_waiter(lambda t=transit: self._retry_allocate(t))

    def _retry_allocate(self, transit: _Transit) -> None:
        if transit.out_link is not None:
            return
        if not self.queue or self.queue[0] is not transit:
            return
        transit.waiting_for_vc = False
        self._try_allocate(transit)

    # ---------------------------------------------------------- feeder side
    def tail_taken(self, link: Link, vc: int) -> None:
        self.queue.popleft()
        if self.queue:
            self._advance_head()

    @property
    def occupancy(self) -> int:
        """Flits buffered here: arrived minus what the out link has taken."""
        return sum(t.flits_arrived - (t.out_link.flits_taken(t.out_vc)
                                      if t.out_link is not None else 0)
                   for t in self.queue)


class Router(FlitSink):
    """A switch node.  Topologies attach input links and provide routing."""

    def __init__(
        self,
        sim: Simulator,
        rid: int,
        route_fn: RouteFn,
        mode: str = CUTTHROUGH,
        route_delay: int = 1,
    ) -> None:
        if mode not in (CUTTHROUGH, STORE_AND_FORWARD):
            raise ValueError(f"unknown forwarding mode {mode!r}")
        self.sim = sim
        self.rid = rid
        self.route_fn = route_fn
        self.mode = mode
        self.route_delay = route_delay
        #: Path-skew jitter: each hop's routing takes ``route_delay`` plus a
        #: uniform extra in ``[0, route_jitter]`` cycles drawn from
        #: ``jitter_rng``.  Same-VC flit order is unaffected (routing is
        #: per-packet), so this skews *paths*, not flit streams.
        self.route_jitter = 0
        self.jitter_rng: Optional[random.Random] = None
        self._input_units: Dict[int, List[InputUnit]] = {}
        self.out_links: Dict[int, Link] = {}
        #: Protocol event bus; None = un-instrumented (the common case).
        self.obs = None

    def attach_in_link(self, port: int, link: Link) -> None:
        """Register ``link`` as the input channel for ``port``.

        Creates one input unit per VC of the link and binds the link's
        per-VC deliveries straight to them.
        """
        if port in self._input_units:
            raise ValueError(f"router {self.rid}: port {port} already attached")
        self._input_units[port] = [
            InputUnit(self, port, vc, link) for vc in range(link.vc_count)
        ]
        link.set_sink(self, port)

    def attach_out_link(self, port: int, link: Link) -> None:
        if port in self.out_links:
            raise ValueError(f"router {self.rid}: output port {port} already attached")
        self.out_links[port] = link

    # FlitSink interface -----------------------------------------------------
    def accept_flit(
        self, port: int, vc: int, packet: Packet, is_head: bool, is_tail: bool
    ) -> None:
        self._input_units[port][vc].accept_flit(packet, is_head, is_tail)

    def flit_target(self, port: int, vc: int):
        """The input unit's own accept, skipping the per-flit port/VC
        dictionary dispatch above; ``None`` until :meth:`attach_in_link`
        creates the port's units (it re-binds the link then)."""
        units = self._input_units.get(port)
        return units[vc].accept_flit if units is not None else None

    def route(self, packet: Packet, in_port: int, in_vc: int) -> List[RouteChoice]:
        return self.route_fn(self, packet, in_port, in_vc)

    def buffered_flits(self) -> int:
        """Total flits currently buffered in this router (congestion probe)."""
        return sum(
            unit.occupancy
            for units in self._input_units.values()
            for unit in units
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Router {self.rid} ports={sorted(self._input_units)}>"
