"""Tests for the link layer: bandwidth pacing, credits, VC allocation."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.links import FlitFeeder, FlitSink, Link
from repro.packets import Packet, PacketKind
from repro.sim import RngFactory, Simulator


class OnePacketFeeder(FlitFeeder):
    """Feeds the flits of a single packet (announced by the test with
    ``link.notify_flit_ready(vc, packet.flits)``); no upstream buffer."""

    def __init__(self, packet):
        self.packet = packet
        self.tails = 0

    def tail_taken(self, link, vc):
        assert link.owner(vc) is self.packet
        self.tails += 1


class RecordingSink(FlitSink):
    """Collects flits; returns credits only when asked (to test backpressure)."""

    def __init__(self, auto_credit_link=None):
        self.flits = []
        self.auto_credit_link = auto_credit_link

    def accept_flit(self, port, vc, packet, is_head, is_tail):
        self.flits.append((port, vc, packet, is_head, is_tail))
        if self.auto_credit_link is not None:
            self.auto_credit_link.return_credit(vc)


def packet(flits=4, src=0, dst=1):
    return Packet(src=src, dst=dst, kind=PacketKind.SCALAR, size_bytes=flits * 4)


def make_link(sim, sink, width=1, vcs=1, buf=16, **kw):
    return Link(sim, "L", width, vcs, buf, sink=sink, sink_port=0, **kw)


class TestTransfer:
    def test_one_flit_per_cycles_per_flit(self):
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink, width=1)  # 4 cycles per 4-byte flit
        pkt = packet(flits=3)
        feeder = OnePacketFeeder(pkt)
        assert link.allocate_vc(pkt, feeder, [0]) == 0
        link.notify_flit_ready(0, pkt.flits)
        sim.run()
        assert len(sink.flits) == 3
        assert sink.flits[0][3] is True   # head flag
        assert sink.flits[-1][4] is True  # tail flag
        assert sim.now == 12  # 3 flits x 4 cycles

    def test_wider_link_is_faster(self):
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink, width=4)  # one flit per cycle
        pkt = packet(flits=8)
        feeder = OnePacketFeeder(pkt)
        link.allocate_vc(pkt, feeder, [0])
        link.notify_flit_ready(0, pkt.flits)
        sim.run()
        assert sim.now == 8

    def test_cycles_per_flit_override(self):
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink, width=1, cycles_per_flit=16)  # CM-5 style
        pkt = packet(flits=2)
        feeder = OnePacketFeeder(pkt)
        link.allocate_vc(pkt, feeder, [0])
        link.notify_flit_ready(0, pkt.flits)
        sim.run()
        assert sim.now == 32

    def test_statistics(self):
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink)
        pkt = packet(flits=2)
        feeder = OnePacketFeeder(pkt)
        link.allocate_vc(pkt, feeder, [0])
        link.notify_flit_ready(0, pkt.flits)
        sim.run()
        assert link.flits_carried == 2
        assert link.packets_carried == 1
        assert link.utilization(sim.now) == 1.0


class TestCredits:
    def test_transfer_stalls_without_credits(self):
        sim = Simulator()
        sink = RecordingSink()  # never returns credits
        link = make_link(sim, sink, buf=2)
        pkt = packet(flits=5)
        feeder = OnePacketFeeder(pkt)
        link.allocate_vc(pkt, feeder, [0])
        link.notify_flit_ready(0, pkt.flits)
        sim.run()
        assert len(sink.flits) == 2  # buffer capacity reached

    def test_credit_return_resumes_transfer(self):
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink, buf=2)
        sink.auto_credit_link = link  # sink drains immediately
        pkt = packet(flits=5)
        feeder = OnePacketFeeder(pkt)
        link.allocate_vc(pkt, feeder, [0])
        link.notify_flit_ready(0, pkt.flits)
        sim.run()
        assert len(sink.flits) == 5

    def test_credit_overflow_detected(self):
        sim = Simulator()
        link = make_link(sim, RecordingSink(), buf=2)
        with pytest.raises(RuntimeError):
            link.return_credit(0)


class TestVcAllocation:
    def test_vc_held_until_tail_delivered(self):
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink, vcs=1)
        sink.auto_credit_link = link
        first = packet(flits=2)
        feeder = OnePacketFeeder(first)
        assert link.allocate_vc(first, feeder, [0]) == 0
        second = packet(flits=2, src=5)
        assert link.allocate_vc(second, OnePacketFeeder(second), [0]) is None
        link.notify_flit_ready(0, first.flits)
        sim.run()
        # tail delivered -> VC free again
        assert link.allocate_vc(second, OnePacketFeeder(second), [0]) == 0

    def test_alloc_waiter_called_on_release(self):
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink)
        sink.auto_credit_link = link
        pkt = packet(flits=2)
        feeder = OnePacketFeeder(pkt)
        link.allocate_vc(pkt, feeder, [0])
        fired = []
        link.add_alloc_waiter(lambda: fired.append(sim.now))
        link.notify_flit_ready(0, pkt.flits)
        sim.run()
        assert fired  # waiter fired when the VC released

    def test_vcs_share_wire_round_robin(self):
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink, vcs=2)
        sink.auto_credit_link = link
        a, b = packet(flits=3, src=1), packet(flits=3, src=2)
        link.allocate_vc(a, OnePacketFeeder(a), [0])
        link.allocate_vc(b, OnePacketFeeder(b), [1])
        link.notify_flit_ready(0, a.flits)
        link.notify_flit_ready(1, b.flits)
        sim.run()
        srcs = [f[2].src for f in sink.flits]
        # flits interleave; total time = 6 flit slots
        assert sim.now == 24
        assert srcs.count(1) == 3 and srcs.count(2) == 3
        assert srcs != [1, 1, 1, 2, 2, 2]  # actually interleaved

    def test_vcs_for_net_grouping(self):
        sim = Simulator()
        link = Link(
            sim, "L", 1, 4, 2, sink=RecordingSink(), sink_port=0,
            net_of_vc=[0, 0, 1, 1],
        )
        assert link.vcs_for_net(0) == [0, 1]
        assert link.vcs_for_net(1) == [2, 3]


class TestReadinessCounts:
    """The link takes exactly the flits its feeder announced."""

    def test_k_announced_flits_give_k_transfers_then_release(self):
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink, vcs=2)
        sink.auto_credit_link = link
        pkt = packet(flits=5)
        feeder = OnePacketFeeder(pkt)
        link.allocate_vc(pkt, feeder, [1])
        released = []
        link.add_alloc_waiter(lambda: released.append(len(sink.flits)))
        # Announce in pieces, as a cut-through router does: what was
        # buffered at allocation, then one flit at a time.
        link.notify_flit_ready(1, 2)
        sim.run()
        assert link.flits_taken(1) == 2 and link.owner(1) is pkt
        assert feeder.tails == 0
        for _ in range(3):
            link.notify_flit_ready(1)
        sim.run()
        assert link.flits_carried == 5 and feeder.tails == 1
        assert [(f[1], f[3], f[4]) for f in sink.flits] == [
            (1, True, False), (1, False, False), (1, False, False),
            (1, False, False), (1, False, True),
        ]
        # The VC releases as the tail lands, before it is delivered.
        assert released == [4]
        assert link.vc_free(1) and link.flits_taken(1) == 0

    def test_over_announced_vc_raises_at_tail_release(self):
        sim = Simulator()
        link = make_link(sim, RecordingSink())
        pkt = packet(flits=2)
        link.allocate_vc(pkt, OnePacketFeeder(pkt), [0])
        link.notify_flit_ready(0, pkt.flits + 1)
        with pytest.raises(RuntimeError, match="announced"):
            sim.run()


class TestLossyLinks:
    def test_dropped_packet_consumes_wire_but_not_delivered(self):
        sim = Simulator()
        sink = RecordingSink()
        rng = RngFactory(3).stream("drop")
        link = make_link(sim, sink, drop_prob=1.0, drop_rng=rng)
        pkt = packet(flits=4)
        feeder = OnePacketFeeder(pkt)
        link.allocate_vc(pkt, feeder, [0])
        link.notify_flit_ready(0, pkt.flits)
        sim.run()
        assert sink.flits == []
        assert link.packets_dropped == 1
        assert link.flits_carried == 4  # bandwidth was spent

    def test_acks_never_dropped(self):
        from repro.packets import AckInfo, make_ack

        sim = Simulator()
        sink = RecordingSink()
        rng = RngFactory(3).stream("drop")
        link = make_link(sim, sink, drop_prob=1.0, drop_rng=rng)
        sink.auto_credit_link = link
        ack = make_ack(0, 1, AckInfo())
        feeder = OnePacketFeeder(ack)
        link.allocate_vc(ack, feeder, [0])
        link.notify_flit_ready(0, ack.flits)
        sim.run()
        assert len(sink.flits) == ack.flits

    def test_zero_drop_prob_is_reliable(self):
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink, drop_prob=0.0)
        sink.auto_credit_link = link
        pkt = packet(flits=4)
        link.allocate_vc(pkt, OnePacketFeeder(pkt), [0])
        link.notify_flit_ready(0, pkt.flits)
        sim.run()
        assert len(sink.flits) == 4


class TestValidation:
    def test_bad_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "L", 0, 1, 1, sink=None, sink_port=0)
        with pytest.raises(ValueError):
            Link(sim, "L", 1, 0, 1, sink=None, sink_port=0)
        with pytest.raises(ValueError):
            Link(sim, "L", 1, 1, 0, sink=None, sink_port=0)

    def test_net_of_vc_length_checked(self):
        with pytest.raises(ValueError):
            Link(Simulator(), "L", 1, 2, 1, sink=None, sink_port=0, net_of_vc=[0])

    def test_lossy_link_without_rng_rejected_at_construction(self):
        # Regression: Link(drop_prob=0.3) with no drop_rng used to pass
        # construction and crash with AttributeError at the first head
        # flit's drop decision.  The missing stream must fail fast.
        sim = Simulator()
        with pytest.raises(ValueError, match="drop_rng"):
            make_link(sim, RecordingSink(), drop_prob=0.3)

    def test_drop_prob_out_of_range_rejected(self):
        sim = Simulator()
        rng = RngFactory(3).stream("drop")
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                make_link(sim, RecordingSink(), drop_prob=bad, drop_rng=rng)
        # Boundary values are legal (0.0 needs no rng at all).
        make_link(sim, RecordingSink(), drop_prob=0.0)
        make_link(sim, RecordingSink(), drop_prob=1.0, drop_rng=rng)


class TestAccountingHonesty:
    def test_utilization_not_clamped(self):
        # Regression: utilization() used to min(1.0, ...) -- hiding exactly
        # the double-transfer accounting bugs the overclock guard hunts.
        sim = Simulator()
        link = make_link(sim, RecordingSink())  # 4 cycles per flit
        link.flits_carried = 40
        assert link.busy_cycles == 160
        assert link.utilization(100) == pytest.approx(1.6)
        assert link.utilization(0) == 0.0

    def test_overclock_guard_survives_counter_reset(self):
        # Regression: the guard used to treat flits_carried == 0 as "first
        # transfer ever", so zeroing the stats counter (as measurement-
        # window code legitimately does) re-armed a free double transfer.
        # The dedicated _last_start sentinel must not be fooled.
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink)
        sink.auto_credit_link = link
        pkt = packet(flits=2)
        link.allocate_vc(pkt, OnePacketFeeder(pkt), [0])
        link.notify_flit_ready(0, pkt.flits)
        sim.run_until(1)  # first flit started at 0, still on the wire
        link.flits_carried = 0  # stats reset must not re-arm the wire
        link._busy = False      # simulate the bug the guard exists to catch
        with pytest.raises(RuntimeError, match="overclocked"):
            link._kick()

    def test_overclock_guard_allows_back_to_back_transfers(self):
        # Consecutive flits exactly cycles_per_flit apart are legal; only a
        # transfer *inside* the previous flit's wire time is a bug.
        sim = Simulator()
        sink = RecordingSink()
        link = make_link(sim, sink)
        sink.auto_credit_link = link
        pkt = packet(flits=4)
        link.allocate_vc(pkt, OnePacketFeeder(pkt), [0])
        link.notify_flit_ready(0, pkt.flits)
        sim.run()
        assert len(sink.flits) == 4
        assert link.utilization(sim.now) == pytest.approx(1.0)


class TestSinkBinding:
    """Each VC's delivery is bound once, to the sink's per-VC target."""

    def test_link_built_before_attach_delivers_into_the_vcs_unit(self):
        from repro.routers.base import Router

        sim = Simulator()
        router = Router(sim, 0, route_fn=lambda *a: [], route_delay=10)
        link = Link(sim, "in", 4, 2, 8, sink=router, sink_port=3)
        router.attach_in_link(3, link)
        pkt = packet(flits=2)
        link.allocate_vc(pkt, OnePacketFeeder(pkt), [1])
        link.notify_flit_ready(1, pkt.flits)
        # Both flits arrive by cycle 2, well before routing completes (and
        # finds no route).
        sim.run_until(3)
        units = router._input_units[3]
        assert not units[0].queue
        assert [t.packet for t in units[1].queue] == [pkt]
        assert units[1].occupancy == 2

    def test_set_sink_rebinds_a_nic_ejection_link(self):
        from repro.nic.base import BaseNIC

        class EjectionRecorder(BaseNIC):
            def __init__(self, sim):
                super().__init__(sim, node_id=0)
                self.ejected = []

            def _on_packet_ejected(self, packet, vc, port):
                self.ejected.append((packet, vc, port))

        sim = Simulator()
        link = Link(sim, "ej", 4, 2, 8, sink=None, sink_port=0)
        nic = EjectionRecorder(sim)
        link.set_sink(nic, 2)
        pkt = packet(flits=3)
        link.allocate_vc(pkt, OnePacketFeeder(pkt), [1])
        link.notify_flit_ready(1, pkt.flits)
        sim.run()
        assert nic.ejected == [(pkt, 1, 2)]
        assert link._vcs[1].accept == nic.flit_target(2, 1)
        assert nic._ej_vcs[(2, 1)].flits == 0
        assert nic.packets_ejected == 1


class TestNicEjectionSink:
    """A NIC's ejection side is one sink per ``(port, vc)``."""

    def recorder(self, sim):
        from repro.nic.base import BaseNIC

        class EjectionRecorder(BaseNIC):
            def __init__(self, sim):
                super().__init__(sim, node_id=4)
                self.ejected = []

            def _on_packet_ejected(self, packet, vc, port):
                self.ejected.append((packet.uid, vc, port))

        return EjectionRecorder(sim)

    def test_vcs_count_their_flits_independently(self):
        nic = self.recorder(Simulator())
        vc0, vc1 = nic.flit_target(0, 0), nic.flit_target(0, 1)
        long, short = packet(flits=3), packet(flits=2, src=2)
        vc0(long, True, False)
        vc1(short, True, False)
        vc0(long, False, False)
        vc1(short, False, True)
        assert nic.ejected == [(short.uid, 1, 0)]
        vc0(long, False, True)
        assert nic.ejected == [(short.uid, 1, 0), (long.uid, 0, 0)]
        assert [nic._ej_vcs[(0, vc)].flits for vc in (0, 1)] == [0, 0]
        assert nic.packets_ejected == 2

    def test_a_short_tail_raises(self):
        nic = self.recorder(Simulator())
        target = nic.flit_target(1, 0)
        pkt = packet(flits=4)
        target(pkt, True, False)
        target(pkt, False, False)
        with pytest.raises(RuntimeError,
                           match="node 4: tail before all flits"):
            target(pkt, False, True)
        assert nic.ejected == []

    def test_a_rebind_keeps_the_vcs_count(self):
        # BaseNIC.accept_flit (the unbound FlitSink entry) shares the sink.
        nic = self.recorder(Simulator())
        pkt = packet(flits=2)
        nic.accept_flit(0, 1, pkt, True, False)
        nic.flit_target(0, 1)(pkt, False, True)
        assert nic.ejected == [(pkt.uid, 1, 0)]


class TestReturnCredits:
    """``return_credits(vc, n)``: ``n`` credits in one call."""

    def stalled(self, sim):
        # A 2-flit buffer that is never drained: two flits cross, three
        # stay announced with no credit.
        sink = RecordingSink()
        link = make_link(sim, sink, vcs=2, buf=2)
        pkt = packet(flits=5)
        link.allocate_vc(pkt, OnePacketFeeder(pkt), [1])
        link.notify_flit_ready(1, pkt.flits)
        sim.run()
        assert len(sink.flits) == 2
        return link, sink

    def test_overflow_names_the_link(self):
        sim = Simulator()
        link, _ = self.stalled(sim)
        with pytest.raises(RuntimeError, match="^L: credit overflow on VC 1"):
            link.return_credits(1, 3)
        with pytest.raises(RuntimeError, match="^L: credit overflow on VC 0"):
            link.return_credits(0, 1)

    def test_one_call_makes_one_kick(self, monkeypatch):
        sim = Simulator()
        link, sink = self.stalled(sim)
        kicks = []
        kick = Link._kick

        def counting_kick(self):
            kicks.append(self)
            kick(self)

        monkeypatch.setattr(Link, "_kick", counting_kick)
        link.return_credits(1, 2)
        assert kicks == [link]
        assert link._busy and link.flits_carried == 3

    def test_same_flits_as_single_credits(self):
        timelines = []
        for batched in (True, False):
            sim = Simulator()
            link, sink = self.stalled(sim)
            if batched:
                link.return_credits(1, 2)
            else:
                link.return_credit(1)
                link.return_credit(1)
            sim.run()
            timelines.append((sim.now, [f[3:] for f in sink.flits],
                              link._vcs[1].credits))
        assert timelines[0] == timelines[1]
        assert timelines[0][1][-1] == (False, False)


class ChainFeeder(FlitFeeder):
    """Feeds a queue of packets onto one VC, announcing each packet's flits
    in scheduled batches; each taken flit frees a credit on ``credit_link``."""

    def __init__(self, sim, link, vc, packets, batches, upstream):
        self.sim = sim
        self.link = link
        self.vc = vc
        self.packets = list(packets)
        self.batches = batches  # per packet: [(delay, n), ...]
        self.credit_link = upstream
        self.credit_vc = vc
        self.tails = []

    def start(self):
        if not self.packets:
            return
        packet = self.packets[0]
        if self.link.allocate_vc(packet, self, [self.vc]) is None:
            self.link.add_alloc_waiter(self.start)
            return
        at = 0
        for delay, n in self.batches[packet.uid]:
            at += delay
            self.sim.post(at, self.link.notify_flit_ready, self.vc, n)

    def tail_taken(self, link, vc):
        assert link is self.link and vc == self.vc
        assert link.flits_taken(vc) == self.packets[0].flits
        self.tails.append(self.packets.pop(0))
        # The tail's credit went upstream before this call.
        up = self.credit_link
        owed = sum(pkt.flits for pkt in self.packets)
        assert up._vcs[vc].credits == up._vc_capacity - owed
        self.sim.post(0, self.start)


class DelayedCreditSink(FlitSink):
    """Records every flit and returns its credit after a drawn delay."""

    def __init__(self, sim, draw_delay):
        self.sim = sim
        self.link = None
        self.draw_delay = draw_delay
        self.flits = []

    def accept_flit(self, port, vc, packet, is_head, is_tail):
        link = self.link
        assert link._nready == sum(vc.ready for vc in link._vcs)
        self.flits.append((vc, packet, is_head, is_tail))
        self.sim.post(self.draw_delay(), link.return_credit, vc)


class TestLinkOwnedHandshake:
    """The link sequences each VC's flits, returns their credits upstream
    and calls ``tail_taken`` once per packet."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_random_announcements_and_credit_returns(self, data):
        sim = Simulator()
        sink = DelayedCreditSink(
            sim, lambda: data.draw(st.integers(0, 12), label="credit delay"))
        link = make_link(sim, sink, width=data.draw(st.sampled_from([1, 4])),
                         vcs=3, buf=data.draw(st.integers(1, 3)))
        sink.link = link
        plans = data.draw(st.lists(
            st.lists(st.integers(1, 6), max_size=4), min_size=3, max_size=3),
            label="packet sizes per VC")
        upstream = Link(sim, "up", 4, 3, 100, sink=None, sink_port=0)
        feeders = []
        for vc, sizes in enumerate(plans):
            packets = [packet(flits=n, src=vc) for n in sizes]
            batches = {}
            for pkt in packets:
                left, plan = pkt.flits, []
                while left:
                    n = data.draw(st.integers(1, left))
                    plan.append((data.draw(st.integers(0, 6)), n))
                    left -= n
                batches[pkt.uid] = plan
            # The feeder's buffer holds every flit it will send.
            upstream._vcs[vc].credits -= sum(sizes)
            feeder = ChainFeeder(sim, link, vc, packets, batches, upstream)
            feeders.append((feeder, packets))
            feeder.start()
        sim.run()

        for vc, (feeder, packets) in enumerate(feeders):
            expected = [
                (vc, pkt, i == 0, i == pkt.flits - 1)
                for pkt in packets for i in range(pkt.flits)
            ]
            assert [f for f in sink.flits if f[0] == vc] == expected
            assert feeder.tails == packets
        assert link.flits_carried == len(sink.flits)
        assert link._nready == sum(vc.ready for vc in link._vcs) == 0
        assert all(link.vc_free(vc) for vc in range(3))
        assert [vc.sent for vc in link._vcs] == [0, 0, 0]
        # Every taken flit freed exactly one upstream credit.
        assert [vc.credits for vc in upstream._vcs] == [100, 100, 100]
        assert [vc.credits for vc in link._vcs] == [link._vc_capacity] * 3


class TestNicInjectionOwnership:
    """The NIC reads injection-VC ownership from the link."""

    def test_tail_on_the_wire_holds_the_only_request_vc(self):
        from repro.nic.base import BaseNIC
        from repro.packets import REQUEST_NET

        sim = Simulator()
        sink = RecordingSink()
        link = Link(sim, "inj", 1, 2, 8, sink=sink, sink_port=0,
                    net_of_vc=[REQUEST_NET, 1 - REQUEST_NET])
        sink.auto_credit_link = link
        nic = BaseNIC(sim, node_id=0)
        nic.attach_injection(link)
        (vc,) = link.vcs_for_net(REQUEST_NET)
        first, second = packet(flits=2), packet(flits=2, src=0, dst=2)
        assert first.logical_net == REQUEST_NET
        assert nic._start_injection(first)
        # Head taken at 0, tail taken at 4; the tail lands at 8.
        sim.run_until(5)
        assert link.flits_taken(vc) == 2 and nic.packets_injected == 1
        assert nic._injection_port_free(REQUEST_NET) is False
        assert nic._start_injection(second) is False
        sim.run_until(8)
        assert nic._start_injection(second) is False
        sim.run_until(9)
        assert link.vc_free(vc)
        assert nic._injection_port_free(REQUEST_NET) is True
        assert nic._start_injection(second) is True
        sim.run()
        assert [f[2] for f in sink.flits] == [first] * 2 + [second] * 2
        assert nic.packets_injected == 2
