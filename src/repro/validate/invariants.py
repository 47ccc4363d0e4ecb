"""Machine-checked protocol invariants: the guarantees, continuously verified.

NIFDY's value proposition (Sections 2 and 6.2 of the paper) is a short list
of *guarantees* delivered with *bounded resources*: every packet handed to
the NIC is delivered to the destination processor exactly once and in
per-(src, dst) send order, using at most O outstanding-packet-table entries,
B pool buffers, D concurrent receiver dialogs, and W reorder buffers per
dialog -- and on a lossy network nothing is ever lost *silently* (a packet
is delivered, or its sender is explicitly told it was abandoned).  The
example-based tests spot-check those claims; the :class:`InvariantMonitor`
checks them on **every** run it is attached to, live (as events stream past
on the :class:`~repro.obs.EventBus`) and again at end-of-run (conservation
and liveness properties that only settle when the run does).

The monitor is a pure observer: it subscribes to the bus and *reads* NIC
state, never mutates it, so a monitored run delivers the same packets at the
same cycles as an unmonitored one -- and a run without ``observe=`` keeps
the ``obs=None`` fast path untouched.

Invariants checked
==================

``exactly_once``      an ``accept`` event fires at most once per packet uid
``in_order``          per-(src, dst) ``pair_seq`` at accept is increasing
                      (gated per *receiver*: checked when the fabric
                      preserves order or that node's NIC restores it)
``opt_bound``         OPT occupancy never exceeds O
``pool_bound``        pool occupancy never exceeds B
``dialog_bound``      concurrent receiver dialogs never exceed D
``window_bound``      per-dialog reorder buffering never exceeds W
``ack_conservation``  acks consumed never exceed acks generated (end-of-run)
``no_silent_loss``    every injected packet is eventually accepted or
                      explicitly abandoned (end-of-run, completed runs only)

Reorder-tolerant receivers (:class:`~repro.nic.ReorderTolerantNIC`) add:

NIC-offloaded collectives (:class:`~repro.nic.CollectiveEngine`) add:

``no_double_contribution``   a combining NIC never folds the same child's
                             contribution into one epoch twice (duplicates
                             must be discarded, not combined)
``release_after_all_arrive`` a NIC releases an epoch only after every
                             expected contribution (children + local) was
                             folded in
``collective_completion``    no epoch still holds combining state at the
                             end of a completed run (end-of-run)

Reorder-tolerant receivers (:class:`~repro.nic.ReorderTolerantNIC`) add:

``reorder_window_bound``  per-source reorder buffers stay inside
                          ``[expect, expect + rx_window)`` and never exceed
                          ``rx_window`` packets
``bitmap_conservation``   the advertised SACK bitmap exactly mirrors the
                          reorder buffer (bitmap policy)
``no_cache_leak``         the cache occupancy counter matches the buffers, a
                          ``dropcache`` receiver never exceeds its capacity,
                          and nothing is still cached at the end of a
                          completed run unless its sender abandoned it
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..obs.events import EventBus, EventKind, ObsEvent

#: Every invariant the monitor can flag, in reporting order.
INVARIANTS = (
    "exactly_once",
    "in_order",
    "opt_bound",
    "pool_bound",
    "dialog_bound",
    "window_bound",
    "ack_conservation",
    "no_silent_loss",
    "no_double_contribution",
    "release_after_all_arrive",
    "collective_completion",
    "reorder_window_bound",
    "bitmap_conservation",
    "no_cache_leak",
)


@dataclass
class Violation:
    """One observed breach of a protocol invariant.

    ``cycle``/``node`` locate it in the run; ``uid``/``src``/``dst`` name
    the packet when one is involved; ``detail`` is the human-readable
    diagnosis including the relevant node state; ``event`` is the bus event
    that exposed it (None for end-of-run checks).
    """

    invariant: str
    cycle: int
    node: int
    detail: str
    uid: int = -1
    src: int = -1
    dst: int = -1
    event: Optional[ObsEvent] = dataclasses.field(default=None, compare=False)

    def describe(self) -> str:
        where = f"node {self.node}" if self.node >= 0 else "run"
        packet = f" packet#{self.uid}" if self.uid >= 0 else ""
        return (
            f"[{self.invariant}] @{self.cycle} {where}{packet}: {self.detail}"
        )

    def to_dict(self) -> Dict:
        """JSON-able form (the shape chaos repro artifacts carry)."""
        return {
            "invariant": self.invariant,
            "cycle": self.cycle,
            "node": self.node,
            "uid": self.uid,
            "src": self.src,
            "dst": self.dst,
            "detail": self.detail,
        }


class InvariantViolation(RuntimeError):
    """Raised (strict mode) the moment an invariant breaks, carrying the
    structured :class:`Violation` so handlers can act on more than a
    string."""

    def __init__(self, violation: Violation):
        super().__init__(violation.describe())
        self.violation = violation


class InvariantMonitor:
    """Checks the protocol guarantees against a live run.

    Attach with :meth:`attach` (wildcard-subscribes to the bus and keeps
    read-only NIC references for the resource-bound checks), then call
    :meth:`finish` once the run ends for the conservation/liveness checks.
    ``strict=True`` raises :class:`InvariantViolation` at the offending
    event; the default collects into :attr:`violations` (bounded by
    ``max_violations``; persistent state breaches are reported once per
    (invariant, node), not once per event).
    """

    def __init__(
        self,
        check_order: bool = True,
        strict: bool = False,
        max_violations: int = 100,
        fabric_in_order: bool = False,
    ):
        self.check_order = check_order
        self.fabric_in_order = fabric_in_order
        self.strict = strict
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        self.dropped_violations = 0
        self.events_checked = 0
        self._nics: List = []
        self._accepted: Dict[int, int] = {}        # uid -> accept cycle
        self._abandoned: Set[int] = set()
        self._injected: Dict[int, Tuple[int, int, int]] = {}  # uid -> (cyc, src, dst)
        self._last_seq: Dict[Tuple[int, int], int] = {}
        # (combiner node, epoch) -> contributor srcs folded in so far
        self._coll_contribs: Dict[Tuple[int, int], Set[int]] = {}
        self._flagged: Set[Tuple[str, int]] = set()  # dedup for state breaches
        self._finished = False

    # ------------------------------------------------------------- wiring
    def attach(self, bus: EventBus, nics: Sequence = ()) -> "InvariantMonitor":
        bus.subscribe(None, self.on_event)
        self._nics = list(nics)
        return self

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return (
                f"invariants ok ({self.events_checked:,} events checked)"
            )
        lines = [
            f"{len(self.violations)} invariant violation(s) over "
            f"{self.events_checked:,} events:"
        ]
        lines += [f"  {v.describe()}" for v in self.violations[:10]]
        if len(self.violations) > 10:
            lines.append(f"  ... and {len(self.violations) - 10} more")
        return "\n".join(lines)

    # ---------------------------------------------------------- recording
    def _flag(self, violation: Violation, once_key: Optional[Tuple] = None) -> None:
        if once_key is not None:
            if once_key in self._flagged:
                return
            self._flagged.add(once_key)
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        else:
            self.dropped_violations += 1
        if self.strict:
            raise InvariantViolation(violation)

    # ------------------------------------------------------- event checks
    def on_event(self, event: ObsEvent) -> None:
        self.events_checked += 1
        kind = event.kind
        if kind == EventKind.INJECT:
            self._injected.setdefault(
                event.uid, (event.cycle, event.src, event.dst)
            )
        elif kind == EventKind.ACCEPT:
            self._check_accept(event)
        elif kind == EventKind.ABANDON:
            self._abandoned.add(event.uid)
        elif kind == EventKind.COLL_CONTRIB:
            self._check_contribution(event)
        elif kind == EventKind.COLL_RELEASE:
            self._check_release(event)
        if 0 <= event.node < len(self._nics):
            self._check_node_state(self._nics[event.node], event)

    def _check_accept(self, event: ObsEvent) -> None:
        previous = self._accepted.get(event.uid)
        if previous is not None:
            self._flag(Violation(
                "exactly_once", event.cycle, event.node,
                f"packet accepted again (first accept @{previous})",
                uid=event.uid, src=event.src, dst=event.dst, event=event,
            ))
            return
        self._accepted[event.uid] = event.cycle
        if not self.check_order or event.seq < 0:
            return
        if not self._order_expected(event.node):
            return
        key = (event.src, event.dst)
        last = self._last_seq.get(key, -1)
        if event.seq <= last:
            self._flag(Violation(
                "in_order", event.cycle, event.node,
                f"pair_seq {event.seq} accepted after {last} "
                f"for {event.src}->{event.dst}",
                uid=event.uid, src=event.src, dst=event.dst, event=event,
            ))
        else:
            self._last_seq[key] = event.seq

    # ------------------------------------------------- collective checks
    def _check_contribution(self, event: ObsEvent) -> None:
        """``seq`` carries the epoch, ``src`` the contributing node (a
        child of the combiner, or the combiner itself)."""
        contribs = self._coll_contribs.setdefault((event.node, event.seq), set())
        if event.src in contribs:
            self._flag(Violation(
                "no_double_contribution", event.cycle, event.node,
                f"node {event.src} contributed twice to epoch {event.seq}",
                src=event.src, event=event,
            ))
        else:
            contribs.add(event.src)

    def _check_release(self, event: ObsEvent) -> None:
        """A NIC released epoch ``seq``: every expected contribution
        (its children plus its own) must already be folded in."""
        engine = None
        if 0 <= event.node < len(self._nics):
            engine = self._nics[event.node].collective
        if engine is None:
            return
        expected = len(engine.children) + 1
        got = self._coll_contribs.pop((event.node, event.seq), set())
        if len(got) < expected:
            self._flag(Violation(
                "release_after_all_arrive", event.cycle, event.node,
                f"epoch {event.seq} released after {len(got)} of "
                f"{expected} contributions ({sorted(got)})",
                event=event,
            ))

    def _order_expected(self, node: int) -> bool:
        """Per-receiver gating: in-order delivery is a checkable guarantee
        when the fabric preserves order, or when *this* node's NIC restores
        it (``guarantees_order``) -- so a reorder-tolerant receiver on a
        spraying fabric is still held to eventual in-order delivery, while a
        plain NIC on the same fabric is exempt."""
        if self.fabric_in_order:
            return True
        if 0 <= node < len(self._nics):
            return self._nics[node].guarantees_order
        # No NICs registered (bus-only attachment): trust the caller's
        # check_order flag, as the pre-per-receiver monitor did.
        return True

    # ----------------------------------------------------- resource bounds
    def _check_node_state(self, nic, event: Optional[ObsEvent]) -> None:
        """Resource-bound invariants on one NIC, read-only.

        NICs without NIFDY params (plain, buffered, reorder-tolerant) have
        no OPT/pool/dialog bound to check.
        """
        cycle = event.cycle if event is not None else -1
        node = nic.node_id
        streams = nic.reorder_rx
        if streams is not None:
            self._check_reorder_state(nic, streams, event, cycle, node)
        params = nic.params
        if params is None:
            return
        opt = nic.opt
        if len(opt) > params.opt_size:
            self._flag(Violation(
                "opt_bound", cycle, node,
                f"OPT holds {len(opt)} destinations, O={params.opt_size}",
                event=event,
            ), once_key=("opt_bound", node))
        pool = nic.pool
        if len(pool) > params.pool_size:
            self._flag(Violation(
                "pool_bound", cycle, node,
                f"pool holds {len(pool)} packets, B={params.pool_size}",
                event=event,
            ), once_key=("pool_bound", node))
        dialogs = nic.rx_dialogs
        if len(dialogs) > params.dialogs:
            self._flag(Violation(
                "dialog_bound", cycle, node,
                f"{len(dialogs)} concurrent dialogs, D={params.dialogs}",
                event=event,
            ), once_key=("dialog_bound", node))
        for dialog in dialogs.values():
            if len(dialog.buffers) > dialog.window:
                self._flag(Violation(
                    "window_bound", cycle, node,
                    f"dialog #{dialog.dialog} from {dialog.src} buffers "
                    f"{len(dialog.buffers)} packets, W={dialog.window}",
                    src=dialog.src, event=event,
                ), once_key=("window_bound", node, dialog.dialog))

    def _check_reorder_state(self, nic, streams, event, cycle, node) -> None:
        """Reorder-tolerant receiver invariants, read-only."""
        rp = nic.reorder_params
        buffered = 0
        for src, st in streams.items():
            buffered += len(st.buffer)
            if st.buffer:
                lo, hi = min(st.buffer), max(st.buffer)
                if (
                    len(st.buffer) > rp.rx_window
                    or lo < st.expect
                    or hi >= st.expect + rp.rx_window
                ):
                    self._flag(Violation(
                        "reorder_window_bound", cycle, node,
                        f"reorder buffer for src {src} holds "
                        f"{len(st.buffer)} seqs in [{lo}, {hi}] with "
                        f"expect={st.expect}, rx_window={rp.rx_window}",
                        src=src, event=event,
                    ), once_key=("reorder_window_bound", node, src))
            if nic.policy == "bitmap" and st.bitmap != set(st.buffer):
                self._flag(Violation(
                    "bitmap_conservation", cycle, node,
                    f"SACK bitmap for src {src} advertises "
                    f"{sorted(st.bitmap)} but the buffer holds "
                    f"{sorted(st.buffer)}",
                    src=src, event=event,
                ), once_key=("bitmap_conservation", node, src))
        cached = nic.reorder_cached
        if cached != buffered:
            self._flag(Violation(
                "no_cache_leak", cycle, node,
                f"cache occupancy counter says {cached} but the stream "
                f"buffers hold {buffered}",
                event=event,
            ), once_key=("no_cache_leak", node))
        elif nic.policy == "dropcache" and cached > rp.cache_capacity:
            self._flag(Violation(
                "no_cache_leak", cycle, node,
                f"dropcache receiver holds {cached} out-of-order packets, "
                f"capacity {rp.cache_capacity}",
                event=event,
            ), once_key=("no_cache_leak", node))

    # --------------------------------------------------- end-of-run checks
    def finish(self, check_loss: bool = True, cycle: int = -1) -> List[Violation]:
        """Run the checks that only settle when the run does.

        ``check_loss=False`` skips ``no_silent_loss`` -- correct for
        fixed-horizon or incomplete runs, where in-flight packets at the
        final cycle are expected, not lost.  Idempotent; returns all
        violations collected over the monitor's lifetime.
        """
        if self._finished:
            return self.violations
        self._finished = True
        for nic in self._nics:
            self._check_node_state(nic, None)
        acks_sent = sum(nic.acks_sent for nic in self._nics)
        acks_received = sum(nic.acks_received for nic in self._nics)
        if self._nics and acks_received > acks_sent:
            self._flag(Violation(
                "ack_conservation", cycle, -1,
                f"{acks_received} acks consumed but only {acks_sent} "
                "generated: acks materialised from nowhere",
            ))
        if check_loss:
            # A completed run must not leave a collective half-combined:
            # every epoch that was entered must have been released.
            for nic in self._nics:
                engine = nic.collective
                if engine is None or not engine.pending_epochs:
                    continue
                node = nic.node_id
                epochs = sorted(engine._epochs)
                self._flag(Violation(
                    "collective_completion", cycle, node,
                    f"epoch(s) {epochs} still hold combining state at "
                    "run end (collective never released)",
                ))
            # A completed run must not end with live packets parked in a
            # reorder buffer: everything cached was either delivered (and
            # hence removed) or written off by its sender's abandonment.
            for nic in self._nics:
                streams = nic.reorder_rx
                if streams is None:
                    continue
                node = nic.node_id
                for src, st in streams.items():
                    leaked = [
                        p for p in st.buffer.values() if p.abandoned_cycle < 0
                    ]
                    if st.stalled is not None and (
                        st.stalled[0].abandoned_cycle < 0
                    ):
                        leaked.append(st.stalled[0])
                    for packet in leaked:
                        self._flag(Violation(
                            "no_cache_leak", cycle, node,
                            f"seq {packet.seq} from {src} still cached at "
                            "run end, never delivered nor abandoned",
                            uid=packet.uid, src=packet.src, dst=packet.dst,
                        ))
            lost = [
                (uid, meta) for uid, meta in self._injected.items()
                if uid not in self._accepted and uid not in self._abandoned
            ]
            for uid, (inj_cycle, src, dst) in sorted(lost):
                self._flag(Violation(
                    "no_silent_loss", cycle, -1,
                    f"injected @{inj_cycle}, never accepted nor abandoned",
                    uid=uid, src=src, dst=dst,
                ))
        return self.violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"<InvariantMonitor {state}, {self.events_checked} events>"
