"""The protocol event bus: typed, near-zero-overhead instrumentation hooks.

Every protocol-relevant state change in the simulator -- a packet entering
the wire, an OPT admission refusal, a dialog grant, a retransmission timer
firing, a fault hitting a link -- can emit one :class:`ObsEvent` onto an
:class:`EventBus`.  The design constraint is the paper's own (Section 3):
measurement must not perturb the experiment.  Two consequences:

* **Detached cost is one attribute test.**  Components carry an ``obs``
  attribute that defaults to ``None``; every emission site is guarded by
  ``if self.obs is not None``, so an un-instrumented run pays a single
  pointer comparison per would-be event and allocates nothing.
* **Emission never touches simulation state.**  Subscribers are called
  synchronously but receive an immutable record; the bus itself only
  counts, buffers, and dispatches.

The taxonomy (``EventKind``) covers the protocol surface the figures of
the paper need: packet lifecycle (inject/eject/accept/abandon), sender
admission (pool enqueue/dequeue, OPT hit/full), the bulk protocol's dialog
lifecycle (grant/deny/close), the loss machinery (retransmit, backoff,
ack-consumed, duplicate, link drop), fabric stalls (router block), and the
fault injector's actions (fault fire/repair).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional


class EventKind:
    """String constants naming every event the bus can carry.

    Strings (rather than an enum) keep emission sites allocation-free and
    make the JSON export self-describing.
    """

    # packet lifecycle
    INJECT = "inject"            # data packet's head flit granted the wire
    EJECT = "eject"              # tail flit assembled at the destination NIC
    ACCEPT = "accept"            # processor finished its receive overhead
    ABANDON = "abandon"          # sender wrote off the packet (degradation)
    # sender admission machinery
    POOL_ENQUEUE = "pool_enqueue"    # processor handed a packet to the pool
    POOL_DEQUEUE = "pool_dequeue"    # rank/eligibility unit released it
    OPT_HIT = "opt_hit"          # destination already has an outstanding pkt
    OPT_FULL = "opt_full"        # all O entries busy; admission refused
    # acks and the bulk dialog lifecycle
    ACK_CONSUMED = "ack_consumed"    # sender-side NIFDY processed an ack
    DIALOG_GRANT = "dialog_grant"
    DIALOG_DENY = "dialog_deny"
    DIALOG_CLOSE = "dialog_close"
    # loss machinery
    RETRANSMIT = "retransmit"    # a held packet's timer fired; re-injected
    BACKOFF = "backoff"          # retry armed with an increased timeout
    DUPLICATE = "duplicate"      # receiver discarded an already-seen packet
    LINK_DROP = "link_drop"      # a link discarded a whole packet
    # NIC-offloaded collectives (``node`` is the combining NIC, ``src`` the
    # contributing node -- a child or the combiner itself -- and ``seq``
    # carries the collective epoch)
    COLL_CONTRIB = "coll_contrib"    # a contribution folded into the tree
    COLL_RELEASE = "coll_release"    # a node released its subtree
    COLL_DUP = "coll_dup"            # duplicate contribution discarded/healed
    # fabric
    ROUTER_BLOCK = "router_block"    # packet began waiting for an output VC
    # fault injector
    FAULT_FIRE = "fault_fire"
    FAULT_REPAIR = "fault_repair"
    # sweep engine progress (one event per resolved grid point; ``cycle``
    # carries the points-done count, ``info`` the point's label)
    SWEEP_POINT = "sweep_point"
    SWEEP_CACHE_HIT = "sweep_cache_hit"
    SWEEP_ERROR = "sweep_error"
    # report generator progress (``cycle`` carries the pages-done count,
    # ``info`` the page name / output path)
    REPORT_PAGE = "report_page"
    REPORT_DONE = "report_done"
    # sweep farm lifecycle (``cycle`` carries the point's campaign index,
    # ``info`` a human-readable diagnosis: label, attempt, backoff delay)
    FARM_DISPATCH = "farm_dispatch"  # one attempt of a point starts
    FARM_RETRY = "farm_retry"        # worker-killing attempt; backoff armed
    FARM_POISON = "farm_poison"      # retry budget exhausted; quarantined
    FARM_RESUME = "farm_resume"      # point settled from a resumed manifest

    ALL = (
        INJECT, EJECT, ACCEPT, ABANDON,
        POOL_ENQUEUE, POOL_DEQUEUE, OPT_HIT, OPT_FULL,
        ACK_CONSUMED, DIALOG_GRANT, DIALOG_DENY, DIALOG_CLOSE,
        RETRANSMIT, BACKOFF, DUPLICATE, LINK_DROP,
        COLL_CONTRIB, COLL_RELEASE, COLL_DUP,
        ROUTER_BLOCK, FAULT_FIRE, FAULT_REPAIR,
        SWEEP_POINT, SWEEP_CACHE_HIT, SWEEP_ERROR,
        REPORT_PAGE, REPORT_DONE,
        FARM_DISPATCH, FARM_RETRY, FARM_POISON, FARM_RESUME,
    )


class ObsEvent(NamedTuple):
    """One instrumentation record.  ``node`` is the emitting component's
    node id (or -1 for fabric-level emitters like links and the injector);
    ``uid``/``src``/``dst`` identify the packet when one is involved and
    ``seq`` carries its per-(src, dst) send order (``Packet.pair_seq``, -1
    when the workload does not stamp one) so order invariants can be checked
    from the event stream alone."""

    cycle: int
    kind: str
    node: int
    uid: int = -1
    src: int = -1
    dst: int = -1
    info: Optional[str] = None
    seq: int = -1


class EventBus:
    """Counts, optionally buffers, and dispatches protocol events.

    ``keep_events`` bounds the in-memory event log (0 disables buffering;
    counting is always on).  Subscribe with :meth:`subscribe` -- pass a
    kind, or ``None`` for a wildcard subscription.
    """

    def __init__(self, keep_events: int = 0):
        self.counts: Dict[str, int] = {}
        self.keep_events = keep_events
        self.events: List[ObsEvent] = []
        self.dropped_events = 0
        self._subs: Dict[str, List[Callable[[ObsEvent], None]]] = {}
        self._wildcard: List[Callable[[ObsEvent], None]] = []
        self._attached: List[object] = []

    # ----------------------------------------------------------- emission
    def emit(
        self,
        cycle: int,
        kind: str,
        node: int,
        uid: int = -1,
        src: int = -1,
        dst: int = -1,
        info: Optional[str] = None,
        seq: int = -1,
    ) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        subs = self._subs.get(kind)
        if not (subs or self._wildcard or self.keep_events):
            return
        event = ObsEvent(cycle, kind, node, uid, src, dst, info, seq)
        if self.keep_events:
            if len(self.events) < self.keep_events:
                self.events.append(event)
            else:
                self.dropped_events += 1
        if subs:
            for fn in subs:
                fn(event)
        for fn in self._wildcard:
            fn(event)

    def emit_packet(self, cycle: int, kind: str, node: int, packet) -> None:
        """Emission helper for the common packet-carrying case."""
        self.emit(
            cycle, kind, node, packet.uid, packet.src, packet.dst,
            seq=packet.pair_seq,
        )

    # ------------------------------------------------------- subscription
    def subscribe(
        self, kind: Optional[str], fn: Callable[[ObsEvent], None]
    ) -> None:
        if kind is None:
            self._wildcard.append(fn)
        elif kind not in EventKind.ALL:
            raise ValueError(f"unknown event kind {kind!r}")
        else:
            self._subs.setdefault(kind, []).append(fn)

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    # ------------------------------------------------------------- wiring
    def attach(self, *components) -> None:
        """Point each component's ``obs`` attribute at this bus.

        Works for anything emitting guarded events: NICs, links, routers,
        the fault injector.  Iterables of components flatten one level.
        """
        for item in components:
            if item is None:
                continue
            if isinstance(item, (list, tuple)):
                self.attach(*item)
                continue
            item.obs = self
            self._attached.append(item)

    def detach_all(self) -> None:
        """Restore every attached component to the un-instrumented state."""
        for item in self._attached:
            item.obs = None
        self._attached = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventBus {self.total()} events over {len(self.counts)} kinds>"
