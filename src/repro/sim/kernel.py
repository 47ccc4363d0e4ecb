"""Deterministic discrete-event simulation kernel.

The paper's simulator (Section 3) steps every object synchronously, cycle by
cycle.  We keep the same *observable* semantics -- all state changes happen at
integer cycle boundaries, and simultaneous events fire in a deterministic
order -- but use an event queue so idle components cost nothing.  Events that
are scheduled for the same cycle fire in the order they were scheduled, which
makes every run bit-for-bit reproducible for a given seed.

Scheduler implementations are pluggable (see :mod:`repro.sim.schedulers`);
this module registers the two built-in kernels:

``"epoch"`` (the default)
    A hybrid calendar queue.  Almost every event in a flit-level run is
    scheduled a small constant number of cycles ahead (``cycles_per_flit``
    is 1-4, route delays ~1, NIC overheads a few cycles), so events landing
    within ``_WINDOW`` cycles of *now* go into a ring of per-cycle FIFO
    lists.  Fire-and-forget work (:meth:`EpochSimulator.post`, the hot
    path) is stored as a bare ``(fn, args)`` record: scheduling is one
    ``list.append`` and dispatch unpacks the tuple -- no ``Event``
    allocation, no heap sift, no Python-level ``Event.__lt__`` calls.
    Cancellable events (``schedule`` / ``at``) are real :class:`Event`
    objects in the same ring slots, so within a slot list order *is*
    scheduling order.  Far events (retransmit timeouts, barriers, fault
    plans, light-traffic compute gaps) fall back to a binary heap and are
    merged back in when their cycle comes up.

``"heap"``
    The original single binary heap keyed by ``(cycle, seq)``, one fresh
    ``Event`` per scheduled callback.  Kept intact as the measured baseline
    (``repro perf`` compares against it) and as the executable
    specification the parity tests diff the ring kernel against.

Ordering across the heap and ring stores is still global ``(cycle, seq)``
order: a heap event for cycle *c* needed at least a ``_WINDOW``-cycle lead
to land in the heap, so it was scheduled at a strictly earlier simulated
time -- and therefore holds a strictly lower sequence number -- than every
ring entry for *c*.  Draining the heap before the ring at each cycle is
exactly seq order, which the parity suite verifies workload-by-workload.

Self-profiling (:meth:`Simulator.enable_profiling`) measures where the
*simulator's own* wall-clock time goes: events executed per second and
cumulative time per handler type.  It exists so performance regressions in
the simulator become a measured number run-to-run rather than a feeling;
the profiled loop is a separate code path, so an un-profiled run pays
nothing for the feature.
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, Dict, List, Optional

from .schedulers import (DEFAULT_SCHEDULER, Scheduler, register_scheduler,
                         resolve_scheduler)

#: Span of the calendar ring in cycles (power of two so the slot index is a
#: mask).  Events scheduled fewer than ``_WINDOW`` cycles ahead take the
#: ring fast path; everything else falls back to the heap.
_WINDOW = 64
_MASK = _WINDOW - 1

class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancellation is O(1): the event is flagged and skipped when popped.
    """

    __slots__ = ("cycle", "seq", "fn", "args", "cancelled", "_fired", "_sim")

    def __init__(self, cycle: int, seq: int, fn: Callable[..., Any], args: tuple):
        self.cycle = cycle
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._fired = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once, and
        safe to call on an event that has already fired (a no-op)."""
        if self.cancelled or self._fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.cycle, self.seq) < (other.cycle, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event @{self.cycle} #{self.seq}{state} {self.fn!r}>"


class KernelProfile:
    """Wall-clock accounting of the event loop (simulator self-profiling).

    ``by_handler`` maps a handler's qualified name (e.g.
    ``NifdyNIC._process_ack``) to ``[count, seconds]``; ``loop_seconds``
    is total time spent inside the run loop, so ``events_per_sec`` includes
    queue overhead -- the honest throughput figure for comparing runs.
    """

    def __init__(self) -> None:
        self.events = 0
        self.loop_seconds = 0.0
        self.by_handler: Dict[str, List] = {}

    def note(self, fn: Callable, seconds: float) -> None:
        name = getattr(fn, "__qualname__", None) or repr(fn)
        entry = self.by_handler.get(name)
        if entry is None:
            self.by_handler[name] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    @property
    def events_per_sec(self) -> float:
        if self.loop_seconds <= 0.0:
            return 0.0
        return self.events / self.loop_seconds

    def table(self, top: Optional[int] = None):
        """``(handler, count, seconds, us_per_event)`` rows, costliest first."""
        rows = [
            (name, count, seconds, 1e6 * seconds / count if count else 0.0)
            for name, (count, seconds) in self.by_handler.items()
        ]
        rows.sort(key=lambda row: row[2], reverse=True)
        return rows[:top] if top is not None else rows

    def to_dict(self) -> Dict:
        return {
            "events": self.events,
            "loop_seconds": self.loop_seconds,
            "events_per_sec": self.events_per_sec,
            "handlers": {
                name: {
                    "count": count,
                    "seconds": seconds,
                    "us_per_event": 1e6 * seconds / count if count else 0.0,
                }
                for name, (count, seconds) in self.by_handler.items()
            },
        }

    def format(self, top: int = 12) -> str:
        lines = [
            f"self-profile: {self.events:,} events in {self.loop_seconds:.3f}s "
            f"wall ({self.events_per_sec:,.0f} events/sec)"
        ]
        lines.append(f"  {'handler':44s}{'count':>10s}{'seconds':>10s}{'us/ev':>8s}")
        for name, count, seconds, us in self.table(top):
            lines.append(f"  {name[:44]:44s}{count:>10,}{seconds:>10.3f}{us:>8.1f}")
        return "\n".join(lines)


class Simulator(Scheduler):
    """Event-driven simulator with cycle-granularity virtual time.

    ``Simulator(scheduler=name)`` dispatches construction through the
    scheduler registry: it returns an instance of whichever
    :class:`~repro.sim.schedulers.Scheduler` subclass is registered under
    ``name`` (default :data:`~repro.sim.schedulers.DEFAULT_SCHEDULER`).
    All implementations fire events in identical ``(cycle, seq)`` order;
    they differ only in queue mechanics and speed.
    """

    def __new__(cls, scheduler: Optional[str] = None):
        if cls is Simulator:
            name = DEFAULT_SCHEDULER if scheduler is None else scheduler
            return object.__new__(resolve_scheduler(name))
        return object.__new__(cls)

    def __init__(self, scheduler: Optional[str] = None) -> None:
        if scheduler is not None and scheduler != self.name:
            raise ValueError(
                f"scheduler mismatch: {type(self).__name__} implements "
                f"{self.name!r}, not {scheduler!r}"
            )
        self._now = 0
        self._seq = 0
        self._heap: List[Event] = []
        self._running = False
        self._live = 0
        self._profile: Optional[KernelProfile] = None

    @property
    def now(self) -> int:
        """Current simulation cycle."""
        return self._now

    @property
    def scheduler(self) -> str:
        """Which event-queue implementation this kernel runs on."""
        return self.name

    @property
    def profile(self) -> Optional[KernelProfile]:
        """The active :class:`KernelProfile`, if profiling is enabled."""
        return self._profile

    def enable_profiling(self) -> KernelProfile:
        """Switch the run loop to the timed path.  Idempotent; returns the
        profile (which accumulates across run calls)."""
        if self._profile is None:
            self._profile = KernelProfile()
        return self._profile

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.at(self._now + delay, fn, *args)

    def pending_events(self) -> int:
        """Not-yet-cancelled events still queued, O(1) (a live count kept
        on schedule/cancel/pop).  A test/debug query: the runner's watchdog
        compares a (delivered, abandoned, flits_carried) signature."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        queued = len(self._heap) + getattr(self, "_nbucket", 0)
        return f"<Simulator {self.name} now={self._now} queued={queued}>"


class HeapSimulator(Simulator):
    """The original binary-heap kernel: the preserved, measured baseline."""

    name = "heap"
    description = ("single binary heap keyed by (cycle, seq); the slow, "
                   "obviously-correct reference implementation")

    def at(self, cycle: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute ``cycle``."""
        if cycle < self._now:
            raise ValueError(
                f"cannot schedule at cycle {cycle}; current cycle is {self._now}"
            )
        event = Event(cycle, self._seq, fn, args)
        event._sim = self
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`.  The heap kernel is the
        preserved baseline: one fresh ``Event`` per call, exactly as the
        original kernel behaved."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self.at(self._now + delay, fn, *args)

    def run_until(self, cycle: int) -> None:
        """Run all events with timestamp strictly less than ``cycle``.

        Afterwards ``self.now == cycle`` (unless the event queue drained
        earlier, in which case ``now`` still advances to ``cycle``).
        """
        self._running = True
        heap = self._heap
        try:
            if self._profile is None:
                while heap and heap[0].cycle < cycle:
                    event = heapq.heappop(heap)
                    if event.cancelled:
                        continue
                    event._fired = True
                    self._live -= 1
                    self._now = event.cycle
                    event.fn(*event.args)
            else:
                self._run_profiled(lambda: heap and heap[0].cycle < cycle)
        finally:
            self._running = False
        self._now = max(self._now, cycle)

    def run(self, max_cycles: Optional[int] = None) -> None:
        """Run until the event queue is empty (or ``max_cycles`` elapses)."""
        if max_cycles is not None:
            self.run_until(self._now + max_cycles)
            return
        self._running = True
        heap = self._heap
        try:
            if self._profile is None:
                while heap:
                    event = heapq.heappop(heap)
                    if event.cancelled:
                        continue
                    event._fired = True
                    self._live -= 1
                    self._now = event.cycle
                    event.fn(*event.args)
            else:
                self._run_profiled(lambda: bool(heap))
        finally:
            self._running = False

    def _run_profiled(self, more: Callable[[], Any]) -> None:
        """The timed heap event loop: same semantics as the plain loops,
        plus per-handler wall-clock accounting."""
        heap = self._heap
        profile = self._profile
        clock = time.perf_counter
        loop_start = clock()
        try:
            while more():
                event = heapq.heappop(heap)
                if event.cancelled:
                    continue
                event._fired = True
                self._live -= 1
                self._now = event.cycle
                start = clock()
                event.fn(*event.args)
                profile.note(event.fn, clock() - start)
                profile.events += 1
        finally:
            profile.loop_seconds += clock() - loop_start


class EpochSimulator(Simulator):
    """The ring kernel (see the module docstring): a ``_WINDOW``-cycle
    calendar ring of per-cycle lists plus the far-event heap.

    A ring entry is either a bare ``(fn, args)`` record from :meth:`post`
    or a cancellable :class:`Event` from :meth:`at`.  Records carry no seq
    -- their position in the slot is their order -- so ``post`` is an
    append and the drain is an unpack.
    """

    name = "epoch"
    description = ("calendar ring draining bare (fn, args) records, heap "
                   "for far events (the default)")

    def __init__(self, scheduler: Optional[str] = None) -> None:
        super().__init__(scheduler)
        self._buckets: List[List] = [[] for _ in range(_WINDOW)]
        self._nbucket = 0  # entries (incl. cancelled husks) in the ring

    def at(self, cycle: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run at absolute ``cycle``."""
        if cycle < self._now:
            raise ValueError(
                f"cannot schedule at cycle {cycle}; current cycle is {self._now}"
            )
        event = Event(cycle, self._seq, fn, args)
        event._sim = self
        self._seq += 1
        self._live += 1
        if cycle - self._now < _WINDOW:
            self._buckets[cycle & _MASK].append(event)
            self._nbucket += 1
        else:
            heapq.heappush(self._heap, event)
        return event

    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule fire-and-forget: like :meth:`schedule`, but returns no
        handle and the event can never be cancelled.

        This is the hot-path API.  Links, routers, processors and the NIC
        ack pumps schedule millions of short-lived events per run and never
        cancel one.  Near events (flit times, route delays, NIC overheads)
        append a bare ``(fn, args)`` record to the ring slot.  Far events
        become real Events in the heap, where ``(cycle, seq)`` comparison
        is needed for ordering.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._live += 1
        if delay < _WINDOW:
            self._buckets[(self._now + delay) & _MASK].append((fn, args))
            self._nbucket += 1
        else:
            event = Event(self._now + delay, self._seq, fn, args)
            event._sim = self
            self._seq += 1
            heapq.heappush(self._heap, event)

    def run_until(self, cycle: int) -> None:
        """Run all events with timestamp strictly less than ``cycle``."""
        self._running = True
        try:
            if self._profile is None:
                self._run_ring(cycle)
            else:
                self._run_ring_profiled(cycle)
        finally:
            self._running = False
        self._now = max(self._now, cycle)

    def run(self, max_cycles: Optional[int] = None) -> None:
        """Run until the event queue is empty (or ``max_cycles`` elapses)."""
        if max_cycles is not None:
            self.run_until(self._now + max_cycles)
            return
        self._running = True
        try:
            if self._profile is None:
                self._run_ring(None)
            else:
                self._run_ring_profiled(None)
        finally:
            self._running = False

    def _run_ring(self, bound: Optional[int]) -> None:
        """The calendar-queue event loop: identical firing order to the
        heap loops."""
        heap = self._heap
        buckets = self._buckets
        heappop = heapq.heappop
        c = self._now
        while True:
            # Next cycle holding a queued event (husks included).  With the
            # ring non-empty the scan ends within _WINDOW slots by
            # construction; in flit-saturated runs it ends in one or two.
            if self._nbucket:
                while not buckets[c & _MASK]:
                    c += 1
                if heap and heap[0].cycle < c:
                    c = heap[0].cycle
            elif heap:
                c = heap[0].cycle
            else:
                return
            if bound is not None and c >= bound:
                return
            self._now = c
            # Heap first: every heap event for this cycle was scheduled at
            # an earlier simulated time than every ring entry for it (it
            # needed a >= _WINDOW lead to be in the heap at all), so it
            # carries a lower seq.  Handlers can only add *ring* entries
            # for the current cycle, so this drain cannot starve.
            while heap and heap[0].cycle == c:
                event = heappop(heap)
                if not event.cancelled:
                    event._fired = True
                    self._live -= 1
                    event.fn(*event.args)
            # List iteration sees the same-cycle entries handlers append.
            bucket = buckets[c & _MASK]
            for entry in bucket:
                if type(entry) is tuple:
                    self._live -= 1
                    fn, args = entry
                    fn(*args)
                elif not entry.cancelled:
                    entry._fired = True
                    self._live -= 1
                    entry.fn(*entry.args)
            self._nbucket -= len(bucket)
            del bucket[:]

    def _run_ring_profiled(self, bound: Optional[int]) -> None:
        """Timed twin of :meth:`_run_ring`, with the same per-event
        accounting as the heap kernel (honest cross-kernel events/sec)."""
        heap = self._heap
        buckets = self._buckets
        heappop = heapq.heappop
        profile = self._profile
        clock = time.perf_counter
        loop_start = clock()
        c = self._now
        try:
            while True:
                if self._nbucket:
                    while not buckets[c & _MASK]:
                        c += 1
                    if heap and heap[0].cycle < c:
                        c = heap[0].cycle
                elif heap:
                    c = heap[0].cycle
                else:
                    return
                if bound is not None and c >= bound:
                    return
                self._now = c
                while heap and heap[0].cycle == c:
                    event = heappop(heap)
                    if not event.cancelled:
                        event._fired = True
                        self._live -= 1
                        start = clock()
                        event.fn(*event.args)
                        profile.note(event.fn, clock() - start)
                        profile.events += 1
                bucket = buckets[c & _MASK]
                for entry in bucket:
                    if type(entry) is tuple:
                        self._live -= 1
                        fn, args = entry
                        start = clock()
                        fn(*args)
                        profile.note(fn, clock() - start)
                        profile.events += 1
                    elif not entry.cancelled:
                        entry._fired = True
                        self._live -= 1
                        start = clock()
                        entry.fn(*entry.args)
                        profile.note(entry.fn, clock() - start)
                        profile.events += 1
                self._nbucket -= len(bucket)
                del bucket[:]
        finally:
            profile.loop_seconds += clock() - loop_start


# Registration order is presentation order (CLI choices, perf tables):
# the default kernel first, then the heap spec it is measured against.
register_scheduler(EpochSimulator)
register_scheduler(HeapSimulator)
