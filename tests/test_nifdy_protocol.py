"""End-to-end tests of the NIFDY protocol: admission control, in-order
delivery, bulk dialogs, and the Section 6.1 extensions."""

import pytest

from repro.nic import NifdyNIC, NifdyParams
from repro.packets import PacketKind
from repro.sim import Simulator

from conftest import build_with_nics, drain_all, simple_packet


def feed(sim, nic, packets, every=10):
    """Push packets into a NIC, retrying while its pool is full."""
    queue = list(packets)

    def pump():
        while queue and nic.try_send(queue[0]):
            queue.pop(0)
        if queue:
            sim.schedule(every, pump)

    sim.schedule(0, pump)


def sample_invariant(sim, fn, every=7, until=100_000):
    """Evaluate ``fn`` periodically; collect its values."""
    values = []

    def probe():
        values.append(fn())
        if sim.now < until:
            sim.schedule(every, probe)

    sim.schedule(0, probe)
    return values


def stream(node_id, dst, count, factory_kwargs=None, **packet_kwargs):
    from repro.traffic import PacketFactory

    factory = PacketFactory(node_id, **(factory_kwargs or {}))
    return factory.message(dst, count)


class TestScalarProtocol:
    def test_one_outstanding_packet_per_destination(self):
        sim, net, nics = build_with_nics(
            "mesh2d", 16, nic="nifdy", params=NifdyParams(dialogs=0, window=0)
        )
        packets = stream(0, 15, 12, {"bulk_threshold": 10 ** 9})
        feed(sim, nics[0], packets)
        outstanding = sample_invariant(sim, lambda: nics[0].outstanding, until=40_000)
        delivered = drain_all(sim, nics, 12)
        assert len(delivered) == 12
        assert max(outstanding) <= 1  # single destination -> one in flight

    def test_opt_bounds_total_outstanding(self):
        params = NifdyParams(opt_size=2, pool_size=8, dialogs=0, window=0)
        sim, net, nics = build_with_nics("fattree", 16, nic="nifdy", params=params)
        packets = []
        for dst in (1, 5, 9, 13):
            packets.extend(stream(0, dst, 4, {"bulk_threshold": 10 ** 9}))
        feed(sim, nics[0], packets)
        outstanding = sample_invariant(sim, lambda: nics[0].outstanding, until=60_000)
        delivered = drain_all(sim, nics, 16)
        assert len(delivered) == 16
        assert max(outstanding) <= 2

    def test_streams_to_distinct_destinations_interleave(self):
        """The pool + OPT let packets to different destinations overlap:
        total time for two streams is far less than twice one stream."""
        def run(dsts):
            params = NifdyParams(opt_size=8, pool_size=8, dialogs=0, window=0)
            sim, net, nics = build_with_nics("fattree", 16, nic="nifdy", params=params)
            packets = []
            for dst in dsts:
                packets.extend(stream(0, dst, 6, {"bulk_threshold": 10 ** 9}))
            feed(sim, nics[0], packets)
            delivered = drain_all(sim, nics, 6 * len(dsts))
            assert len(delivered) == 6 * len(dsts)
            return max(p.delivered_cycle for p in delivered)

        one = run([9])
        two = run([9, 10])
        assert two < 2 * one * 0.8

    def test_in_order_delivery_on_adaptive_network(self):
        sim, net, nics = build_with_nics("multibutterfly", 64, nic="nifdy")
        assert not net.delivers_in_order
        packets = stream(0, 63, 25)
        feed(sim, nics[0], packets)
        delivered = drain_all(sim, nics, 25)
        assert [p.pair_seq for p in delivered] == list(range(25))

    def test_acks_are_consumed_by_nic_not_processor(self):
        sim, net, nics = build_with_nics("mesh2d", 4, nic="nifdy")
        feed(sim, nics[0], stream(0, 3, 5, {"bulk_threshold": 10 ** 9}))
        delivered = drain_all(sim, nics, 5)
        assert all(p.kind is not PacketKind.ACK for p in delivered)
        assert nics[0].acks_received == 5
        assert nics[3].acks_sent == 5

    def test_slow_receiver_throttles_sender(self):
        """If the destination never polls, the sender injects exactly one
        packet to it and blocks (Section 1.2)."""
        sim, net, nics = build_with_nics("mesh2d", 4, nic="nifdy")
        feed(sim, nics[0], stream(0, 3, 6, {"bulk_threshold": 10 ** 9}))
        sim.run_until(50_000)  # nobody receives
        assert nics[0].scalar_sent == 1
        # once the receiver starts polling everything flows
        delivered = drain_all(sim, nics, 6)
        assert len(delivered) == 6


class TestBulkProtocol:
    def test_dialog_granted_and_used(self):
        params = NifdyParams(opt_size=4, pool_size=8, dialogs=1, window=4)
        sim, net, nics = build_with_nics("fattree", 16, nic="nifdy", params=params)
        feed(sim, nics[0], stream(0, 9, 12, {"bulk_threshold": 4}))
        delivered = drain_all(sim, nics, 12)
        assert len(delivered) == 12
        assert [p.pair_seq for p in delivered] == list(range(12))
        assert nics[9].bulk_grants == 1
        assert nics[0].bulk_sent > 0
        # dialog torn down afterwards
        assert nics[0]._bulk_out is None
        assert nics[9].rx_dialogs == {}
        assert sorted(nics[9]._free_dialogs) == [0]

    def test_window_never_exceeded(self):
        """The receiver's reorder store raises if a sender overruns W; a
        long bulk transfer must complete without tripping it."""
        params = NifdyParams(opt_size=4, pool_size=8, dialogs=1, window=4)
        sim, net, nics = build_with_nics("multibutterfly", 64, nic="nifdy", params=params)
        feed(sim, nics[0], stream(0, 63, 40, {"bulk_threshold": 4}))
        delivered = drain_all(sim, nics, 40)
        assert len(delivered) == 40
        assert [p.pair_seq for p in delivered] == list(range(40))

    def test_dialog_rejected_when_slots_busy(self):
        params = NifdyParams(opt_size=4, pool_size=8, dialogs=1, window=4)
        sim, net, nics = build_with_nics("fattree", 16, nic="nifdy", params=params)
        feed(sim, nics[1], stream(1, 0, 30, {"bulk_threshold": 4}))
        feed(sim, nics[2], stream(2, 0, 30, {"bulk_threshold": 4}))
        delivered = drain_all(sim, nics, 60)
        assert len(delivered) == 60
        assert nics[0].bulk_rejects > 0
        # rejected sender kept going in scalar mode; both streams in order
        by_src = {1: [], 2: []}
        for p in delivered:
            by_src[p.src].append(p.pair_seq)
        assert by_src[1] == sorted(by_src[1])
        assert by_src[2] == sorted(by_src[2])

    def test_two_dialog_slots_serve_two_senders(self):
        params = NifdyParams(opt_size=4, pool_size=8, dialogs=2, window=4)
        sim, net, nics = build_with_nics("fattree", 16, nic="nifdy", params=params)
        feed(sim, nics[1], stream(1, 0, 20, {"bulk_threshold": 4}))
        feed(sim, nics[2], stream(2, 0, 20, {"bulk_threshold": 4}))
        delivered = drain_all(sim, nics, 40)
        assert len(delivered) == 40
        assert nics[0].bulk_grants == 2
        assert nics[0].bulk_rejects == 0

    def test_orphan_grant_freed_with_control_exit(self):
        """A single-packet message requests bulk; the grant arrives after
        the message is done, so the sender must free the receiver's dialog
        slot with a header-only exit packet."""
        params = NifdyParams(opt_size=4, pool_size=8, dialogs=1, window=4)
        sim, net, nics = build_with_nics("mesh2d", 4, nic="nifdy", params=params)
        pkt = stream(0, 3, 1, {"bulk_threshold": 1})[0]
        assert pkt.bulk_request
        feed(sim, nics[0], [pkt])
        delivered = drain_all(sim, nics, 1)
        assert len(delivered) == 1
        sim.run_until(sim.now + 20_000)
        assert nics[3].rx_dialogs == {}
        assert sorted(nics[3]._free_dialogs) == [0]
        assert nics[0]._bulk_out is None

    def test_one_outgoing_dialog_at_a_time(self):
        """Bulk requests to a second destination are suppressed while a
        dialog is active: the second stream proceeds scalar."""
        params = NifdyParams(opt_size=8, pool_size=16, dialogs=1, window=4)
        sim, net, nics = build_with_nics("fattree", 16, nic="nifdy", params=params)
        packets = stream(0, 9, 20, {"bulk_threshold": 4})
        packets += stream(0, 10, 20, {"bulk_threshold": 4})
        feed(sim, nics[0], packets)
        delivered = drain_all(sim, nics, 40)
        assert len(delivered) == 40
        for dst in (9, 10):
            seqs = [p.pair_seq for p in delivered if p.dst == dst]
            assert seqs == sorted(seqs)

    def test_bulk_disabled_falls_back_to_scalar(self):
        params = NifdyParams(opt_size=4, pool_size=8, dialogs=0, window=0)
        sim, net, nics = build_with_nics("fattree", 16, nic="nifdy", params=params)
        feed(sim, nics[0], stream(0, 9, 10, {"bulk_threshold": 2}))
        delivered = drain_all(sim, nics, 10)
        assert len(delivered) == 10
        assert nics[0].bulk_sent == 0


class TestExtensions:
    def test_no_ack_packets_skip_protocol(self):
        sim, net, nics = build_with_nics("mesh2d", 4, nic="nifdy")
        packets = stream(0, 3, 5, {"bulk_threshold": 10 ** 9, "needs_ack": False})
        feed(sim, nics[0], packets)
        delivered = drain_all(sim, nics, 5)
        assert len(delivered) == 5
        assert nics[3].acks_sent == 0
        assert nics[0].outstanding == 0

    def test_ack_on_insert_ablation_still_correct(self):
        params = NifdyParams(scalar_ack_on_insert=True, dialogs=0, window=0)
        sim, net, nics = build_with_nics("mesh2d", 16, nic="nifdy", params=params)
        feed(sim, nics[0], stream(0, 15, 10, {"bulk_threshold": 10 ** 9}))
        delivered = drain_all(sim, nics, 10)
        assert [p.pair_seq for p in delivered] == list(range(10))

    def test_per_packet_ack_ablation(self):
        params = NifdyParams(dialogs=1, window=4, ack_every=1)
        sim, net, nics = build_with_nics("fattree", 16, nic="nifdy", params=params)
        feed(sim, nics[0], stream(0, 9, 16, {"bulk_threshold": 4}))
        delivered = drain_all(sim, nics, 16)
        assert [p.pair_seq for p in delivered] == list(range(16))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            NifdyParams(opt_size=0)
        with pytest.raises(ValueError):
            NifdyParams(window=1)
        with pytest.raises(ValueError):
            NifdyParams(dialogs=-1)

    def test_total_buffers_budget(self):
        p = NifdyParams(opt_size=8, pool_size=8, dialogs=1, window=8,
                        arrivals_capacity=2)
        assert p.total_buffers == 8 + 2 + 8
        q = NifdyParams(pool_size=4, dialogs=0, window=0)
        assert q.total_buffers == 4 + 2

    def test_ack_interval_default_half_window(self):
        assert NifdyParams(window=8).ack_interval == 4
        assert NifdyParams(window=8, ack_every=1).ack_interval == 1

    def test_guarantees_order(self):
        assert NifdyNIC(Simulator(), 0).guarantees_order
