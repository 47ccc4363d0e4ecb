"""Tests for the metrics collector and the Figure 5 congestion tracker."""

from repro.metrics import CongestionTracker, LatencyStats, MetricsCollector
from repro.sim import Simulator

from conftest import simple_packet


class TestLatencyStats:
    def test_accumulates(self):
        stats = LatencyStats()
        for value in (10, 20, 60):
            stats.note(value)
        assert stats.count == 3
        assert stats.mean == 30
        assert stats.maximum == 60

    def test_empty_mean_is_zero(self):
        assert LatencyStats().mean == 0.0


class TestCollector:
    def test_send_accept_accounting(self):
        collector = MetricsCollector(4)
        pkt = simple_packet(0, 2, pair_seq=0)
        pkt.created_cycle = 0
        pkt.injected_cycle = 10
        pkt.delivered_cycle = 50
        collector.note_send(pkt)
        collector.note_inject(pkt)
        assert collector.in_flight == 1
        assert collector.pending_per_receiver[2] == 1
        collector.note_accept(pkt)
        assert collector.in_flight == 0
        assert collector.pending_per_receiver[2] == 0
        assert collector.network_latency.mean == 40
        assert collector.total_latency.mean == 50

    def test_abandoned_then_delivered_counts_once(self):
        # A partition heals after the sender wrote the packet off: the late
        # delivery undoes the write-off instead of being owed twice.
        collector = MetricsCollector(4)
        pkt = simple_packet(0, 2, pair_seq=0)
        pkt.injected_cycle = 10
        collector.note_send(pkt)
        collector.note_inject(pkt)
        pkt.abandoned_cycle = 500
        collector.note_abandon(pkt)
        assert (collector.abandoned, collector.in_flight) == (1, 0)
        pkt.delivered_cycle = 900
        collector.note_accept(pkt)
        assert collector.delivered == 1
        assert collector.abandoned == 0
        assert collector.in_flight == 0
        assert collector.pending_per_receiver[2] == 0

    def test_order_violation_detected(self):
        collector = MetricsCollector(4, check_order=True)
        first = simple_packet(0, 1, pair_seq=1)
        second = simple_packet(0, 1, pair_seq=0)
        for p in (first, second):
            p.delivered_cycle = 1
            collector.note_accept(p)
        assert collector.order_violations == 1

    def test_in_order_stream_clean(self):
        collector = MetricsCollector(4, check_order=True)
        for i in range(10):
            p = simple_packet(0, 1, pair_seq=i)
            p.delivered_cycle = i
            collector.note_accept(p)
        assert collector.order_violations == 0

    def test_pairs_tracked_independently(self):
        collector = MetricsCollector(4, check_order=True)
        for src in (0, 2):
            for i in range(3):
                p = simple_packet(src, 1, pair_seq=i)
                p.delivered_cycle = 1
                collector.note_accept(p)
        assert collector.order_violations == 0


class TestCongestionTracker:
    def test_sampling_cadence(self):
        sim = Simulator()
        collector = MetricsCollector(4)
        tracker = CongestionTracker(sim, collector, sample_every=100)
        tracker.start()
        sim.run_until(1000)
        tracker.stop()
        assert len(tracker.samples) == 10
        assert tracker.sample_cycles[:3] == [0, 100, 200]

    def test_snapshots_reflect_pending(self):
        sim = Simulator()
        collector = MetricsCollector(4)
        tracker = CongestionTracker(sim, collector, sample_every=10)
        pkt = simple_packet(0, 3)

        def inject():
            pkt.injected_cycle = sim.now
            collector.note_inject(pkt)

        sim.schedule(5, inject)

        def accept():
            pkt.delivered_cycle = sim.now
            collector.note_accept(pkt)

        sim.schedule(35, accept)
        tracker.start()
        sim.run_until(60)
        per_sample = [row[3] for row in tracker.samples]
        assert per_sample == [0, 1, 1, 1, 0, 0]

    def test_peak_and_heatmap(self):
        sim = Simulator()
        collector = MetricsCollector(4)
        tracker = CongestionTracker(sim, collector, sample_every=10)
        for _ in range(25):
            collector.note_inject(simple_packet(0, 2))
        tracker.start()
        sim.run_until(20)
        assert tracker.peak_pending() == 25
        rows = tracker.heatmap_rows()
        assert len(rows) == 2
        assert rows[0][2] == "@"  # saturated at 20+
        assert rows[0][0] == " "
