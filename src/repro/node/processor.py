"""The processor model: software overheads, polling reception, and the
action loop that traffic drivers feed.

Section 3: "only polling message reception is allowed; thus the computation
always initiates interaction with the network".  The processor alternates
between executing its driver's actions (sends, computation, barriers,
deliberate ignore periods) and polling the NIC.  Receiving always takes
priority over the next action, which is exactly what makes the paper's
radix-sort scan serialise without inserted delays (Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..nic.base import BaseNIC
from ..packets import Packet
from ..sim import Barrier, Simulator
from .timing import Timing


@dataclass
class Send:
    """Hand one packet to the NIC (costs ``t_send``, retried if NIC full)."""

    packet: Packet


@dataclass
class Compute:
    """Spin the processor for ``cycles`` (still ignores the network)."""

    cycles: int


@dataclass
class Ignore:
    """Deliberately ignore the network (the light-traffic 'non-responsive'
    periods of Section 4.1): no polls, no receives for ``cycles``."""

    cycles: int


@dataclass
class PollFor:
    """Poll the network attentively for ``cycles`` (receiving anything that
    arrives) before moving on -- deliberate send pacing that stays
    responsive, unlike :class:`Ignore`."""

    cycles: int


@dataclass
class WaitBarrier:
    """Block until every processor reaches the barrier."""


@dataclass
class AllReduce:
    """Contribute ``value`` to a global reduction and block until the
    combined result releases (``driver.on_reduced(combined)`` fires first).
    Runs on the host combine or the NIC combining tree, whichever the
    experiment selected."""

    value: int


@dataclass
class Done:
    """Driver has no more work; keep polling so peers can finish."""


Action = Union[Send, Compute, Ignore, PollFor, WaitBarrier, AllReduce, Done]


class Processor:
    """One node's CPU: runs driver actions and receives by polling."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        nic: BaseNIC,
        driver: "TrafficDriver",
        timing: Timing,
        barrier: Optional[Barrier] = None,
        network_in_order: bool = False,
        exploit_inorder: bool = False,
        host_collective=None,
    ):
        self.sim = sim
        self._post = sim.post  # cached: _busy runs once per processor step
        self.node_id = node_id
        self.nic = nic
        self.driver = driver
        self.timing = timing
        self.barrier = barrier
        self.host_collective = host_collective
        self.network_in_order = network_in_order
        self.exploit_inorder = exploit_inorder
        self._pending: Optional[Action] = None
        self._in_barrier = False
        self._barrier_enter = -1
        self._reduce_pending = False
        self._mid_receive = False
        self._poll_deadline: Optional[int] = None
        self._held_continuations = []
        self.paused = False  # between pause() and resume()
        self.done = False
        self.packets_sent = 0
        self.packets_received = 0
        self.busy_cycles = 0
        self.on_send = None  # hook(packet), set by the metrics collector
        self.on_barrier = None  # hook(latency_cycles), ditto
        driver.bind(self)

    def start(self) -> None:
        self.sim.post(0, self._step)

    # ------------------------------------------------------- fault support
    def pause(self) -> None:
        """Freeze this processor (a crashed/wedged node): no polls, no
        sends, no receives.  The NIC keeps running -- hardware survives a
        software hang -- so end-point backpressure builds up naturally."""
        self.paused = True

    def resume(self) -> None:
        """Un-freeze a paused processor, resuming exactly where it stopped."""
        if not self.paused:
            return
        self.paused = False
        held, self._held_continuations = self._held_continuations, []
        for fn, args in held:
            self.sim.post(0, fn, *args)

    # ---------------------------------------------------------- reception
    @property
    def receive_in_order(self) -> bool:
        """Whether software may rely on per-sender in-order delivery: either
        the fabric preserves order or the NIC restores it.  The single
        source of truth for every receive site, so a NIC variant cannot
        desynchronise the main loop from the poll loops."""
        return self.nic.guarantees_order or self.network_in_order

    def _begin_receive(self, mid_poll: bool) -> None:
        """Pop the next arrival and pay the receive overhead."""
        packet = self.nic.receive()
        cost = self.timing.receive_cost(
            packet.msg_len, self.receive_in_order, self.exploit_inorder
        )
        self._mid_receive = mid_poll
        self._busy(cost, self._received, packet)

    # ------------------------------------------------------------ main loop
    def _step(self) -> None:
        # Receiving takes priority: polling found a packet.
        if self.nic.has_arrival():
            self._begin_receive(mid_poll=False)
            return
        action = self._pending
        if action is None:
            action = self.driver.next_action()
            self._pending = action
        if isinstance(action, Send):
            self._do_send(action)
        elif isinstance(action, Compute):
            self._pending = None
            self._busy(action.cycles, self._step)
        elif isinstance(action, Ignore):
            self._pending = None
            self._busy(action.cycles, self._step)
        elif isinstance(action, PollFor):
            self._pending = None
            self._poll_deadline = self.sim.now + action.cycles
            self._deadline_poll()
        elif isinstance(action, WaitBarrier):
            self._pending = None
            # Keep polling while blocked at the barrier: a node that stops
            # receiving would deadlock the senders still finishing the phase.
            self._in_barrier = True
            self._barrier_enter = self.sim.now
            if self.nic.collective is not None:
                self.nic.collective.arrive(None, self._collective_release)
            elif self.barrier is not None:
                self.barrier.arrive(self.node_id, self._barrier_release)
            else:
                raise RuntimeError("driver used WaitBarrier without a barrier")
            self._barrier_poll()
        elif isinstance(action, AllReduce):
            self._pending = None
            self._in_barrier = True
            self._barrier_enter = self.sim.now
            self._reduce_pending = True
            if self.nic.collective is not None:
                self.nic.collective.arrive(
                    action.value, self._collective_release
                )
            elif self.host_collective is not None:
                self.host_collective.arrive(
                    self.node_id, action.value, self._collective_release
                )
            else:
                raise RuntimeError(
                    "driver used AllReduce without a collective"
                )
            self._barrier_poll()
        elif isinstance(action, Done):
            self.done = True
            self._pending = None
            # Idle poll loop: stay responsive for incoming traffic.
            self._busy(self.timing.t_poll, self._step)
        else:
            raise TypeError(f"unknown action {action!r}")

    def _do_send(self, action: Send) -> None:
        if not self.nic.can_send():
            # NIC full: poll (and receive, next step) before retrying.
            self._busy(self.timing.t_poll, self._step)
            return
        self._busy(self.timing.t_send, self._send_finished, action)

    def _send_finished(self, action: Send) -> None:
        if self.nic.try_send(action.packet):
            self._pending = None
            self.packets_sent += 1
            if self.on_send is not None:
                self.on_send(action.packet)
        # else: NIC filled up while we paid the send overhead; retry.
        self._step()

    def _received(self, packet: Packet) -> None:
        self._mid_receive = False
        self.nic.accepted(packet)
        self.packets_received += 1
        self.driver.on_packet(packet)
        if self._in_barrier:
            self._barrier_poll()
        elif self._poll_deadline is not None:
            self._deadline_poll()
        else:
            self._step()

    # ------------------------------------------------------ deadline poll
    def _deadline_poll(self) -> None:
        if self._poll_deadline is None or self.sim.now >= self._poll_deadline:
            self._poll_deadline = None
            self._step()
            return
        if self.nic.has_arrival():
            self._begin_receive(mid_poll=True)
        else:
            self._busy(self.timing.t_poll, self._deadline_poll)

    # -------------------------------------------------------- barrier poll
    def _barrier_poll(self) -> None:
        if not self._in_barrier:
            return
        if self.nic.has_arrival():
            self._begin_receive(mid_poll=True)
        else:
            self._busy(self.timing.t_poll, self._barrier_poll)

    def _collective_release(self, value) -> None:
        """Release upcall from the NIC engine or the host combine."""
        if self._reduce_pending:
            self._reduce_pending = False
            self.driver.on_reduced(value)
        self._barrier_release()

    def _barrier_release(self) -> None:
        self._in_barrier = False
        if self.on_barrier is not None and self._barrier_enter >= 0:
            self.on_barrier(self.sim.now - self._barrier_enter)
        self._barrier_enter = -1
        if not self._mid_receive:
            self.sim.post(0, self._run_or_hold, self._step, ())

    def _busy(self, cycles: int, fn, *args) -> None:
        # post(): every processor step is one of these and none is ever
        # cancelled, so the ring kernel stores them as bare records.
        self.busy_cycles += cycles
        self._post(1 if cycles < 1 else cycles, self._run_or_hold, fn, args)

    def _run_or_hold(self, fn, args) -> None:
        """Continuation trampoline: while paused, park pending continuations
        instead of running them; :meth:`resume` releases them in order."""
        if self.paused:
            self._held_continuations.append((fn, args))
            return
        fn(*args)


class TrafficDriver:
    """Base class for workload drivers (one per processor)."""

    def bind(self, proc: Processor) -> None:
        self.proc = proc

    def next_action(self) -> Action:
        """The next thing this processor should do.  Called only after the
        previous action completed.  Return :class:`Done` when out of work."""
        raise NotImplementedError

    def on_packet(self, packet: Packet) -> None:
        """Upcall for every data packet the processor accepted."""

    def on_reduced(self, value) -> None:
        """Upcall with the combined result of an :class:`AllReduce`, fired
        just before the processor unblocks."""

    def on_abandoned(self, packet: Packet) -> None:
        """Upcall when this node's NIC gave up delivering ``packet`` (retry
        exhaustion under graceful degradation).  The default is to shrug --
        the loss is recorded in the experiment metrics -- but workload
        drivers that track expected replies should override this so they can
        finish instead of waiting forever."""
