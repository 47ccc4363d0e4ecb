"""Tests for the lossy-network extension (Section 6.2)."""

import pytest

from repro.networks import build_network
from repro.nic import NifdyNIC, NifdyParams, RetransmitTimer, RetransmittingNifdyNIC
from repro.packets import Packet, PacketKind
from repro.sim import RngFactory, Simulator

from conftest import drain_all
from test_nifdy_protocol import feed, stream


def lossy_setup(drop_prob, num_nodes=16, network="fattree", params=None,
                retx_timeout=800, seed=5):
    sim = Simulator()
    rngf = RngFactory(seed)
    net = build_network(
        network, sim, num_nodes,
        rng=rngf.stream("route"),
        drop_prob=drop_prob,
        drop_rng=rngf.stream("drop"),
    )
    params = params or NifdyParams(opt_size=4, pool_size=8, dialogs=1, window=4)
    nics = net.attach_nics(
        lambda n: RetransmittingNifdyNIC(sim, n, params, retx_timeout=retx_timeout)
    )
    return sim, net, nics


class TestScalarRetransmission:
    def test_all_packets_delivered_despite_drops(self):
        sim, net, nics = lossy_setup(0.15)
        feed(sim, nics[0], stream(0, 9, 15, {"bulk_threshold": 10 ** 9}))
        delivered = drain_all(sim, nics, 15, horizon=2_000_000)
        assert len(delivered) == 15
        assert nics[0].retransmissions > 0

    def test_delivery_remains_in_order(self):
        sim, net, nics = lossy_setup(0.2)
        feed(sim, nics[0], stream(0, 9, 20, {"bulk_threshold": 10 ** 9}))
        delivered = drain_all(sim, nics, 20, horizon=2_000_000)
        assert [p.pair_seq for p in delivered] == list(range(20))

    def test_no_duplicates_reach_processor(self):
        sim, net, nics = lossy_setup(0.25)
        feed(sim, nics[0], stream(0, 9, 15, {"bulk_threshold": 10 ** 9}))
        delivered = drain_all(sim, nics, 15, horizon=2_000_000)
        uids = [p.uid for p in delivered]
        assert len(uids) == len(set(uids)) == 15

    def test_reliable_network_needs_no_retransmissions(self):
        sim, net, nics = lossy_setup(0.0)
        feed(sim, nics[0], stream(0, 9, 10, {"bulk_threshold": 10 ** 9}))
        delivered = drain_all(sim, nics, 10)
        assert len(delivered) == 10
        assert nics[0].retransmissions == 0
        assert nics[9].duplicates_dropped == 0


class TestBulkRetransmission:
    def test_bulk_transfer_completes_despite_drops(self):
        sim, net, nics = lossy_setup(0.15)
        feed(sim, nics[0], stream(0, 9, 24, {"bulk_threshold": 4}))
        delivered = drain_all(sim, nics, 24, horizon=3_000_000)
        assert [p.pair_seq for p in delivered] == list(range(24))

    def test_dialog_eventually_torn_down(self):
        sim, net, nics = lossy_setup(0.15)
        feed(sim, nics[0], stream(0, 9, 12, {"bulk_threshold": 4}))
        delivered = drain_all(sim, nics, 12, horizon=3_000_000)
        assert len(delivered) == 12
        sim.run_until(sim.now + 100_000)
        assert nics[9].rx_dialogs == {}
        assert nics[0]._bulk_out is None

    def test_many_pairs_under_loss(self):
        sim, net, nics = lossy_setup(0.1, num_nodes=16)
        expected = 0
        for src in range(0, 16, 2):
            dst = (src + 7) % 16
            feed(sim, nics[src], stream(src, dst, 8, {"bulk_threshold": 4}))
            expected += 8
        delivered = drain_all(sim, nics, expected, horizon=3_000_000)
        assert len(delivered) == expected


class TestGiveUp:
    def test_max_retries_raises(self):
        sim, net, nics = lossy_setup(1.0, retx_timeout=200)
        nics[0].retx.max_retries = 3
        feed(sim, nics[0], stream(0, 9, 1, {"bulk_threshold": 10 ** 9}))
        # Exponential backoff: retries at ~200, 600, 1400; give-up ~3000.
        with pytest.raises(RuntimeError, match="gave up"):
            sim.run_until(200 * 40)

    def test_abandon_records_instead_of_raising(self):
        sim, net, nics = lossy_setup(1.0, retx_timeout=200)
        nics[0].retx.max_retries = 3
        nics[0].retx.on_exhaust = "abandon"
        abandoned = []
        nics[0].on_abandon = abandoned.append
        feed(sim, nics[0], stream(0, 9, 1, {"bulk_threshold": 10 ** 9}))
        sim.run_until(200 * 40)
        assert nics[0].packets_abandoned == 1
        assert len(abandoned) == 1
        assert abandoned[0].dst == 9
        assert len(nics[0].opt) == 0        # OPT entry was released
        assert nics[0].retx.held == {}      # no timer left running

    def test_abandon_frees_traffic_to_other_destinations(self):
        # Partition node 9 only (its ejection link): traffic to 9 exhausts
        # and is abandoned, while a later stream to node 5 still completes.
        sim, net, nics = lossy_setup(0.0, retx_timeout=300)
        for link in net.links:
            if link.name == "ft:ej9":
                link.fail()
        nics[0].retx.max_retries = 2
        nics[0].retx.on_exhaust = "abandon"
        feed(sim, nics[0], stream(0, 9, 2, {"bulk_threshold": 10 ** 9}))
        feed(sim, nics[0], stream(0, 5, 4, {"bulk_threshold": 10 ** 9}))
        delivered = drain_all(sim, nics, 4, horizon=1_000_000)
        assert [p.dst for p in delivered] == [5, 5, 5, 5]
        assert nics[0].packets_abandoned >= 1

    def test_bulk_abandon_tears_down_whole_dialog(self):
        sim, net, nics = lossy_setup(1.0, retx_timeout=200)
        nics[0].retx.max_retries = 2
        nics[0].retx.on_exhaust = "abandon"
        feed(sim, nics[0], stream(0, 9, 8, {"bulk_threshold": 4}))
        sim.run_until(400_000)
        assert nics[0]._bulk_out is None
        assert nics[0].retx.held == {}
        assert nics[0].packets_abandoned >= 1


class TestAdaptiveTimeout:
    def test_rtt_samples_shrink_the_timeout(self):
        # Start with a deliberately huge timer on a reliable network: the
        # estimator should pull the RTO down toward the measured RTT.
        sim, net, nics = lossy_setup(0.0, retx_timeout=50_000)
        feed(sim, nics[0], stream(0, 9, 10, {"bulk_threshold": 10 ** 9}))
        delivered = drain_all(sim, nics, 10, horizon=2_000_000)
        assert len(delivered) == 10
        assert nics[0].rtt_samples > 0
        assert nics[0].retx.current_timeout < 50_000

    def test_rto_clamped_to_floor_and_cap(self):
        # The clamp is derived from retx_timeout: floor max(32, T // 8),
        # cap 64 * T, and every backed-off delay stays under the cap too.
        for retx_timeout, floor in ((160, 32), (800, 100)):
            sim = Simulator()
            nic = NifdyNIC(sim, 0)
            timer = RetransmitTimer(
                nic, retx_timeout, max_retries=50, on_exhaust="raise",
                requeue=lambda packet: None, exhausted=lambda key: None,
            )
            assert timer.current_timeout == retx_timeout
            for _ in range(200):
                timer.note_rtt(1)
            assert timer.current_timeout == floor
            for _ in range(200):
                timer.note_rtt(10 ** 9)
            assert timer.current_timeout == 64 * retx_timeout
            packet = Packet(src=0, dst=1, kind=PacketKind.SCALAR, size_bytes=16)
            timer.arm(("s", 1), packet, tries=6)
            (_, event, _, _), = timer.held.values()
            assert event.cycle == sim.now + 64 * retx_timeout

    def test_unknown_exhaust_policy_rejected(self):
        with pytest.raises(ValueError, match="on_exhaust"):
            RetransmitTimer(
                NifdyNIC(Simulator(), 0), 1000, 50, "bogus",
                requeue=lambda packet: None, exhausted=lambda key: None,
            )

    def test_retransmission_still_recovers_with_adaptation(self):
        sim, net, nics = lossy_setup(0.2, retx_timeout=800)
        feed(sim, nics[0], stream(0, 9, 20, {"bulk_threshold": 10 ** 9}))
        delivered = drain_all(sim, nics, 20, horizon=3_000_000)
        assert [p.pair_seq for p in delivered] == list(range(20))
        assert nics[0].retransmissions > 0
