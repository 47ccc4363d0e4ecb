"""Shared helpers for the test suite."""

from typing import List, Optional

import pytest

from repro.networks import build_network
from repro.nic import NifdyNIC, NifdyParams, PlainNIC
from repro.packets import FLIT_BYTES, Packet, PacketKind
from repro.sim import RngFactory, Simulator, scheduler_names
from repro.sim import kernel as sim_kernel

#: Calendar-ring size of the ``"bucket"`` kernel case (see
#: :func:`kernel_case`).
NARROW_RING = 4

#: The cases kernel-parametrized tests run under: every registered kernel,
#: plus ``"bucket"`` -- the ring kernel with its calendar ring cut to
#: ``NARROW_RING`` buckets.  Most events then overflow to the far heap and
#: must merge back into the ring in ``(cycle, seq)`` order, a path that
#: full-size runs reach only for timeouts, barriers and fault plans.
KERNEL_CASES = scheduler_names() + ("bucket",)


def kernel_case(case, monkeypatch):
    """Set up kernel ``case`` for one test; return the kernel name to run."""
    if case != "bucket":
        return case
    monkeypatch.setattr(sim_kernel, "_WINDOW", NARROW_RING)
    monkeypatch.setattr(sim_kernel, "_MASK", NARROW_RING - 1)
    return "epoch"


def drain_all(sim, nics, expected, horizon=500_000, poll_every=25):
    """Poll every NIC until ``expected`` packets are delivered (or the
    relative ``horizon`` elapses).  Returns packets in acceptance order."""
    delivered: List[Packet] = []

    def poll():
        for nic in nics:
            pkt = nic.receive()
            if pkt is not None:
                delivered.append(pkt)
                nic.accepted(pkt)
        if len(delivered) < expected:
            sim.schedule(poll_every, poll)

    sim.schedule(poll_every, poll)
    sim.run_until(sim.now + horizon)
    return delivered


def build_with_nics(name, num_nodes, nic="plain", params=None, seed=0, **overrides):
    """(sim, network, nics) with the requested NIC type on every node."""
    sim = Simulator()
    net = build_network(
        name, sim, num_nodes, rng=RngFactory(seed).stream("route"), **overrides
    )
    if nic == "plain":
        nics = net.attach_nics(lambda n: PlainNIC(sim, n, out_capacity=64))
    elif nic == "nifdy":
        p = params or NifdyParams()
        nics = net.attach_nics(lambda n: NifdyNIC(sim, n, p))
    else:
        raise ValueError(nic)
    return sim, net, nics


def simple_packet(src, dst, flits=8, **kw):
    return Packet(
        src=src, dst=dst, kind=PacketKind.SCALAR,
        size_bytes=flits * FLIT_BYTES, **kw,
    )
