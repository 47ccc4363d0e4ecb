"""Crash-point traffic: a workload that kills its own worker on purpose.

The sweep engine's worker pool (:mod:`repro.experiments.pool`) has to be
tested against the failures it exists to contain: a worker process dying
*hard* (the ``os._exit`` / segfault / OOM-kill class that raises no
Python exception and breaks a shared process pool), a worker wedging on
wall clock, and a plain in-point exception.  The misbehaving traffic
lives in the package registry, like any other workload, so a spec that
names it is portable: it crosses into a pool worker as plain data and
builds there under any process start method.

``CrashPointConfig`` behaves exactly like a small
:class:`~repro.traffic.pairstream.PairStreamDriver` stream until the
sender has issued ``after_packets`` packets, then fails in the configured
``mode``.  Two knobs make the failure *schedulable* rather than merely
destructive:

* ``once_flag`` -- a filesystem path used as a one-shot armer: the first
  run creates the file and then crashes; any later run (an engine retry, or
  a baseline run with the flag pre-created) sees the file and completes
  cleanly.  A clean run's results are identical whether or not the config
  could have crashed, which is what lets the crash-survival tests demand
  byte-identical output against an uninterrupted serial baseline.
* ``mode="raise"`` stays inside Python (ordinary per-point isolation);
  ``"exit"`` is the hard kill; ``"hang"`` sleeps the worker past any
  reasonable ``point_timeout``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List, Optional

from ..node import Action, Done, Send, TrafficDriver
from ..packets import Packet, SYNTHETIC_PACKET_WORDS
from ..sim import RngFactory
from .messages import PacketFactory

#: Exit status a hard-crashing worker dies with (chosen to be
#: distinguishable from Python's own exit codes).
CRASH_EXIT_CODE = 86

CRASH_MODES = ("exit", "raise", "hang")


@dataclass
class CrashPointConfig:
    """A pair stream whose sender fails after ``after_packets`` sends."""

    src: int = 0
    dst: int = 1
    packets: int = 8
    #: How the sender fails: ``exit`` (hard ``os._exit``, kills the worker
    #: with no Python unwind), ``raise`` (ordinary exception), ``hang``
    #: (sleeps ``hang_seconds`` of wall clock).
    mode: str = "exit"
    #: Sends issued before the failure fires; >= ``packets`` never fires.
    after_packets: int = 2
    exit_code: int = CRASH_EXIT_CODE
    hang_seconds: float = 3600.0
    #: One-shot armer path: crash only while the file does not exist (the
    #: file is created immediately before failing, so exactly one attempt
    #: dies and every later attempt runs clean).  ``None`` fails always.
    once_flag: Optional[str] = None
    packet_words: int = SYNTHETIC_PACKET_WORDS

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("crash-point stream needs two distinct nodes")
        if self.packets < 1:
            raise ValueError("need at least one packet")
        if self.mode not in CRASH_MODES:
            raise ValueError(
                f"unknown crash mode {self.mode!r}; choose from {CRASH_MODES}"
            )


class CrashPointDriver(TrafficDriver):
    """Pair-stream sender that fails mid-stream in the configured mode."""

    def __init__(
        self,
        node_id: int,
        num_nodes: int,
        config: CrashPointConfig,
        rng_factory: Optional[RngFactory] = None,
        exploit_inorder: bool = False,
    ):
        self.node_id = node_id
        self.config = config
        self.sent = 0
        self.received = 0
        self._queue: List[Packet] = []
        if node_id == config.src:
            factory = PacketFactory(
                node_id,
                packet_words=config.packet_words,
                exploit_inorder=exploit_inorder,
            )
            self._queue = factory.message(config.dst, config.packets)

    # ------------------------------------------------------------- failure
    def _armed(self) -> bool:
        flag = self.config.once_flag
        if flag is None:
            return True
        if os.path.exists(flag):
            return False
        # Create the flag BEFORE failing: exactly one attempt dies, and a
        # crash mode like os._exit gets no chance to write anything after.
        with open(flag, "w", encoding="utf-8") as handle:
            handle.write("crashed\n")
        return True

    def _fail(self) -> None:
        mode = self.config.mode
        if mode == "exit":
            os._exit(self.config.exit_code)
        if mode == "hang":
            time.sleep(self.config.hang_seconds)
            return
        raise RuntimeError(
            f"crashpoint traffic raised on purpose after "
            f"{self.sent} packet(s)"
        )

    # -------------------------------------------------------------- driver
    def next_action(self) -> Action:
        if self.sent == self.config.after_packets and self._queue:
            if self._armed():
                self._fail()
        if self._queue:
            self.sent += 1
            return Send(self._queue.pop(0))
        return Done()

    def on_packet(self, packet: Packet) -> None:
        self.received += 1
