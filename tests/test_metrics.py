"""Tests for the metrics collector and Figure 5's per-receiver backlog."""

import pytest

from repro.experiments import ExperimentSpec, cshift, run_experiment
from repro.metrics import LatencyStats, MetricsCollector
from repro.obs import Observability, StateSampler
from repro.sim import Simulator
from repro.traffic import CShiftConfig

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
    """Figure 5's per-receiver backlog, recorded by the state sampler."""

    def test_sampling_cadence(self):
        sim = Simulator()
        sampler = StateSampler(sim, [], [], MetricsCollector(4), interval=100)
        sampler.start()
        sim.run_until(1000)
        sampler.stop()
        assert len(sampler.pending) == 10
        assert sampler.cycles[:3] == [0, 100, 200]

    def test_snapshots_reflect_pending(self):
        sim = Simulator()
        collector = MetricsCollector(4)
        sampler = StateSampler(sim, [], [], collector, interval=10)
        pkt = simple_packet(0, 3)

        def inject():
            pkt.injected_cycle = sim.now
            collector.note_inject(pkt)

        sim.schedule(5, inject)

        def accept():
            pkt.delivered_cycle = sim.now
            collector.note_accept(pkt)

        sim.schedule(35, accept)
        sampler.start()
        sim.run_until(60)
        per_sample = [row[3] for row in sampler.pending]
        assert per_sample == [0, 1, 1, 1, 0, 0]
        assert sampler.packets_in_network == per_sample

    def test_peak_and_heatmap(self):
        sim = Simulator()
        collector = MetricsCollector(4)
        sampler = StateSampler(sim, [], [], collector, interval=10)
        for _ in range(25):
            collector.note_inject(simple_packet(0, 2))
        sampler.start()
        sim.run_until(20)
        assert sampler.peak_pending() == 25
        assert sampler.mean_peak_pending() == 25.0
        rows = sampler.heatmap_rows()
        assert len(rows) == 2
        assert rows[0][2] == "@"  # saturated at 20+
        assert rows[0][0] == " "

    # A Figure-5-shaped run: C-shift without barriers on a half-populated
    # CM-5 fabric.  Literal rows of receivers 0..7 per sample (the parked
    # receivers 8..15 stay 0): any change to what Figure 5 records, or
    # when, fails here.
    FIG5_ROWS = {
        "plain": [
            [0, 0, 0, 0, 0, 0, 0, 0], [1, 2, 2, 2, 1, 2, 2, 2],
            [2, 2, 3, 1, 2, 2, 3, 1], [2, 3, 2, 2, 2, 3, 2, 2],
            [2, 2, 3, 2, 2, 2, 3, 2], [2, 0, 2, 3, 2, 0, 2, 3],
            [0, 1, 0, 2, 0, 1, 0, 2],
        ],
        "nifdy": [
            [0, 0, 0, 0, 0, 0, 0, 0], [2, 3, 2, 2, 2, 2, 2, 2],
            [3, 2, 2, 4, 1, 2, 2, 2], [2, 2, 4, 1, 3, 1, 3, 3],
            [2, 4, 2, 2, 2, 2, 3, 2], [1, 0, 1, 2, 1, 1, 0, 2],
        ],
    }

    @pytest.mark.parametrize("mode", ["plain", "nifdy"])
    def test_fig5_shaped_run_pinned(self, mode):
        observe = Observability(events=False, sample_interval=1000)
        result = run_experiment(ExperimentSpec(
            network="cm5",
            traffic=cshift(CShiftConfig(words_per_phase=24, barriers=False)),
            num_nodes=16, active_nodes=8, nic_mode=mode, seed=11,
            observe=observe, max_cycles=1_000_000,
        ))
        sampler = observe.sampler
        expected = self.FIG5_ROWS[mode]
        assert result.completed
        assert result.cycles == 1000 * len(expected)
        assert sampler.cycles == [1000 * i for i in range(len(expected))]
        assert [row[:8] for row in sampler.pending] == expected
        assert all(row[8:] == [0] * 8 for row in sampler.pending)
