"""NIC-offloaded collectives: combining-ack barrier, broadcast, and reduce.

ROADMAP item 4.  The Quadrics/Myrinet line of work (PAPERS.md, arXiv
cs/0402027) puts barrier and reduction logic on the NIC: contributions climb
a k-ary combining tree, interior NICs merge their children's values into one
combined packet upstream -- the ack IS the reduction op -- and the root's
release rides a broadcast fan-out back down.  NIFDY's combined-ack machinery
(Section 2.4.2) makes this a natural protocol extension: contributions travel
on the request network, releases on the reply network, mirroring the data/ack
split that keeps the base protocol fetch-deadlock-free.

Loss recovery is timer-driven and idempotent, armed only on lossy runs (the
same trigger that selects :class:`RetransmittingNifdyNIC`):

* a non-root node retransmits its combined contribution until the release
  for that epoch arrives;
* a combiner that sees a contribution for an epoch it has already released
  answers with a fresh release (the child evidently missed it);
* duplicate ``(epoch, child)`` contributions are dropped and counted.

Epochs number successive collectives, so a fast child running one barrier
ahead of its parent is never mistaken for a duplicate.

:class:`HostCollective` is the host-side analogue for reductions (the flat
central combine the paper's stub barrier performs), so ``allreduce``
workloads run under either ``barrier="host"`` or ``barrier="nic"``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Union

from ..obs.events import EventKind
from ..packets import (REPLY_NET, REQUEST_NET, CollectiveInfo, Packet,
                       make_collective)
from ..sim import Simulator

#: Reduction operators a combining NIC can apply in hardware.
COLLECTIVE_OPS = ("sum", "max", "min")


def _combine(op: str, a: Optional[int], b: Optional[int]) -> Optional[int]:
    """Fold two contributions; ``None`` (pure barrier) stays ``None``."""
    if a is None or b is None:
        return None
    if op == "sum":
        return a + b
    if op == "max":
        return a if a >= b else b
    return a if a <= b else b


@dataclass(frozen=True)
class CollectiveParams:
    """Knobs for the collective subsystem.

    ``barrier`` selects where barriers/reductions run: ``"host"`` keeps the
    zero-network flat combine, ``"nic"`` routes them through the combining
    tree.  ``fanout`` is the tree arity k, ``op`` the reduction operator,
    ``retx_timeout`` the per-epoch retransmit timer (cycles) armed on lossy
    runs only.
    """

    barrier: str = "host"
    fanout: int = 4
    op: str = "sum"
    retx_timeout: int = 2000

    def __post_init__(self) -> None:
        if self.barrier not in ("host", "nic"):
            raise ValueError(f"barrier must be 'host' or 'nic': {self.barrier}")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if self.op not in COLLECTIVE_OPS:
            raise ValueError(f"unknown collective op {self.op!r}")
        if self.retx_timeout <= 0:
            raise ValueError("retx_timeout must be positive")


class CollectiveTree:
    """A k-ary combining tree over the participating node ids.

    Members are sorted; member ``i`` (by rank) has parent ``(i-1)//k`` and
    children ``k*i+1 .. k*i+k``.  Rank 0 is the root.
    """

    def __init__(self, members: Iterable[int], fanout: int):
        self.members: List[int] = sorted(members)
        if not self.members:
            raise ValueError("collective tree needs at least one member")
        self.fanout = fanout
        self._rank = {node: i for i, node in enumerate(self.members)}

    @property
    def root(self) -> int:
        return self.members[0]

    def parent_of(self, node: int) -> Optional[int]:
        rank = self._rank[node]
        if rank == 0:
            return None
        return self.members[(rank - 1) // self.fanout]

    def children_of(self, node: int) -> List[int]:
        rank = self._rank[node]
        first = self.fanout * rank + 1
        return self.members[first:first + self.fanout]

    def is_member(self, node: int) -> bool:
        return node in self._rank


class _EpochState:
    """Per-epoch combining registers of one NIC."""

    __slots__ = ("resume", "value", "count", "have_local", "contribs",
                 "sent_up", "timer")

    def __init__(self) -> None:
        self.resume: Optional[Callable] = None
        self.value: Optional[int] = None   # combined partial
        self.count = 0                     # leaf contributions folded in
        self.have_local = False
        self.contribs: Dict[int, bool] = {}  # child -> seen
        self.sent_up = False
        self.timer = None


class CollectiveEngine:
    """The collective protocol engine of one NIC.

    Attached to :attr:`BaseNIC.collective`; the base NIC routes every
    COLLECTIVE packet here (dedicated combining registers, never the
    arrivals FIFO) and returns ejection credits immediately.
    """

    def __init__(
        self,
        sim: Simulator,
        nic,
        tree: CollectiveTree,
        params: CollectiveParams,
        lossy: bool = False,
    ):
        self.sim = sim
        self.nic = nic
        self.tree = tree
        self.params = params
        self.lossy = lossy
        self.node_id = nic.node_id
        self.children = tree.children_of(self.node_id)
        self.parent = tree.parent_of(self.node_id)
        self.is_root = self.parent is None
        self._epochs: Dict[int, _EpochState] = {}
        self._next_epoch = 0      # epoch of the NEXT local arrive()
        self._released = -1       # highest epoch released at this node
        #: release values kept for lossy re-release of completed epochs
        self._release_values: Dict[int, Optional[int]] = {}
        self._txq: Dict[int, Deque[Packet]] = {
            REQUEST_NET: deque(), REPLY_NET: deque(),
        }
        # statistics (summed into metrics_json per run)
        self.coll_contribs_sent = 0
        self.coll_releases_sent = 0
        self.coll_retransmits = 0
        self.coll_duplicates = 0
        self.coll_completed = 0

    # ------------------------------------------------------ processor side
    def arrive(self, value: Optional[int], resume: Callable) -> None:
        """Local processor contributes ``value`` (``None`` = pure barrier)
        and blocks; ``resume(combined)`` fires when the release arrives."""
        epoch = self._next_epoch
        self._next_epoch += 1
        state = self._state(epoch)
        if state.have_local:
            raise RuntimeError(
                f"node {self.node_id} contributed twice to epoch {epoch}"
            )
        state.have_local = True
        state.resume = resume
        if state.count == 0:
            state.value = value
        else:
            state.value = _combine(self.params.op, state.value, value)
        state.count += 1
        self._emit(EventKind.COLL_CONTRIB, src=self.node_id, epoch=epoch)
        self._maybe_advance(epoch)

    # -------------------------------------------------------- network side
    def on_packet(self, packet: Packet) -> None:
        info = packet.coll
        if info.phase == "up":
            self._on_contribution(packet.src, info)
        else:
            self._on_release(info)

    def _on_contribution(self, child: int, info: CollectiveInfo) -> None:
        epoch = info.epoch
        if epoch <= self._released:
            # The child missed (or has not yet seen) the release for an
            # epoch this node completed: answer with a fresh release.
            self.coll_duplicates += 1
            self._emit(EventKind.COLL_DUP, src=child, epoch=epoch)
            self._send_release(child, epoch, self._release_values.get(epoch))
            return
        state = self._state(epoch)
        if child in state.contribs:
            self.coll_duplicates += 1
            self._emit(EventKind.COLL_DUP, src=child, epoch=epoch)
            return
        state.contribs[child] = True
        if state.count == 0:
            state.value = info.value
        else:
            state.value = _combine(self.params.op, state.value, info.value)
        state.count += info.count
        self._emit(EventKind.COLL_CONTRIB, src=child, epoch=epoch)
        self._maybe_advance(epoch)

    def _on_release(self, info: CollectiveInfo) -> None:
        epoch = info.epoch
        if epoch <= self._released:
            return  # duplicate release from a lossy-mode retransmit race
        state = self._epochs.get(epoch)
        self._finish_epoch(epoch, info.value, state)

    # ----------------------------------------------------------- combining
    def _state(self, epoch: int) -> _EpochState:
        state = self._epochs.get(epoch)
        if state is None:
            state = self._epochs[epoch] = _EpochState()
        return state

    def _maybe_advance(self, epoch: int) -> None:
        state = self._epochs[epoch]
        if not state.have_local or len(state.contribs) < len(self.children):
            return
        if self.is_root:
            self.coll_completed += 1
            self._emit(EventKind.COLL_RELEASE, src=self.node_id, epoch=epoch)
            for child in self.children:
                self._send_release(child, epoch, state.value)
            self._finish_epoch(epoch, state.value, state)
        elif not state.sent_up:
            state.sent_up = True
            self._send_up(epoch, state)
            if self.lossy:
                self._arm_timer(epoch, state)

    def _finish_epoch(
        self, epoch: int, value: Optional[int], state: Optional[_EpochState]
    ) -> None:
        """Deliver the release locally and fan it out to the children."""
        self._released = epoch
        if self.lossy:
            self._release_values[epoch] = value
        if not self.is_root:
            self._emit(EventKind.COLL_RELEASE, src=self.node_id, epoch=epoch)
            for child in self.children:
                self._send_release(child, epoch, value)
        resume = None
        if state is not None:
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
            resume = state.resume
            del self._epochs[epoch]
        if resume is not None:
            resume(value)

    # ------------------------------------------------------------ transmit
    def _send_up(self, epoch: int, state: _EpochState) -> None:
        info = CollectiveInfo(phase="up", epoch=epoch, op=self.params.op,
                              value=state.value, count=state.count)
        self.coll_contribs_sent += 1
        self._enqueue(make_collective(self.node_id, self.parent, info))

    def _send_release(self, child: int, epoch: int,
                      value: Optional[int]) -> None:
        info = CollectiveInfo(phase="down", epoch=epoch, op=self.params.op,
                              value=value, count=0)
        self.coll_releases_sent += 1
        self._enqueue(make_collective(self.node_id, child, info))

    def _enqueue(self, packet: Packet) -> None:
        packet.created_cycle = self.sim.now
        self._txq[packet.logical_net].append(packet)
        self._pump(packet.logical_net)

    def _pump(self, net: int) -> None:
        queue = self._txq[net]
        while queue:
            if not self.nic._start_injection(queue[0]):
                self.nic._retry_when_port_frees(
                    f"coll{net}", net, lambda: self._pump(net)
                )
                return
            queue.popleft()

    def on_injection_complete(self, packet: Packet) -> None:
        self._pump(packet.logical_net)

    # ---------------------------------------------------------- loss cover
    def _arm_timer(self, epoch: int, state: _EpochState) -> None:
        state.timer = self.sim.schedule(
            self.params.retx_timeout, self._timeout, epoch
        )

    def _timeout(self, epoch: int) -> None:
        state = self._epochs.get(epoch)
        if state is None or not state.sent_up:
            return
        self.coll_retransmits += 1
        self._send_up(epoch, state)
        self._arm_timer(epoch, state)

    # ------------------------------------------------------------- queries
    @property
    def pending_epochs(self) -> List[int]:
        """Ids of the collectives with unfinished combining state at this
        node, in ascending order."""
        return sorted(self._epochs)

    def _emit(self, kind: str, src: int, epoch: int) -> None:
        if self.nic.obs is not None:
            self.nic.obs.emit(
                self.sim.now, kind, self.node_id, src=src, seq=epoch
            )


class HostCollective:
    """Host-side allreduce: a flat central combine with a release latency.

    The reduction analogue of :class:`repro.sim.Barrier` -- same membership
    validation and generation-tagged release window, plus an operator fold
    over the contributions.  This is what ``barrier="host"`` runs, so the
    NIC-offloaded tree has a faithful software baseline.
    """

    def __init__(
        self,
        sim: Simulator,
        parties: Union[int, Iterable[int]],
        release_cost: int = 100,
        op: str = "sum",
    ):
        if isinstance(parties, int):
            members = frozenset(range(parties))
        else:
            members = frozenset(parties)
        if not members:
            raise ValueError("collective needs at least one party")
        if op not in COLLECTIVE_OPS:
            raise ValueError(f"unknown collective op {op!r}")
        self.sim = sim
        self.members = members
        self.parties = len(members)
        self.release_cost = release_cost
        self.op = op
        self._waiting: Dict[int, Callable] = {}
        self._value: Optional[int] = None
        self._count = 0
        self._pending_release: Dict[int, int] = {}
        self._generation = 0
        self.crossings = 0

    def arrive(self, node_id: int, value: Optional[int],
               resume: Callable) -> None:
        if node_id not in self.members:
            raise RuntimeError(
                f"node {node_id} is not a member of this collective"
            )
        if node_id in self._waiting:
            raise RuntimeError(
                f"node {node_id} arrived at collective twice"
            )
        if node_id in self._pending_release:
            raise RuntimeError(
                f"node {node_id} re-arrived during the release window of "
                f"generation {self._pending_release[node_id]}"
            )
        self._waiting[node_id] = resume
        self._value = value if self._count == 0 else _combine(
            self.op, self._value, value)
        self._count += 1
        if len(self._waiting) == self.parties:
            waiters = list(self._waiting.items())
            combined = self._value
            self._waiting.clear()
            self._value = None
            self._count = 0
            generation = self._generation
            self._generation += 1
            self.crossings += 1
            for node, fn in waiters:
                self._pending_release[node] = generation
                self.sim.post(self.release_cost, self._fire, generation,
                              node, fn, combined)

    def _fire(self, generation: int, node: int, fn: Callable,
              combined: Optional[int]) -> None:
        if self._pending_release.get(node) == generation:
            del self._pending_release[node]
        fn(combined)
