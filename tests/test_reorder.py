"""Reorder-tolerant receivers on spraying fabrics.

The spraying fat tree / multibutterfly give up in-order delivery for path
diversity; the three :class:`~repro.nic.ReorderTolerantNIC` policies must
hand software a reliable, in-order channel anyway -- differing only in
what recovery costs (retransmissions, duplicates, receiver drops).
"""

import pytest

from repro.experiments import ExperimentSpec, run_experiment
from repro.faults import FaultPlan
from repro.networks import build_network
from repro.nic import (
    REORDER_POLICIES,
    PlainNIC,
    ReorderParams,
    ReorderTolerantNIC,
)
from repro.obs import Observability
from repro.sim import RngFactory, Simulator
from repro.traffic import IncastConfig, PacketFactory, TrafficSpec

from conftest import drain_all
from test_nifdy_protocol import feed

NODES = 16


def _spray_net(sim, seed=3, drop=0.0, skew=0, num_nodes=NODES):
    rngf = RngFactory(seed)
    return build_network(
        "fattree-spray", sim, num_nodes, rng=rngf.stream("route"),
        drop_prob=drop, drop_rng=rngf.stream("drop"), path_skew=skew,
    )


def _run_stream(policy, count=60, drop=0.0, skew=4, params=None,
                horizon=4_000_000, **nic_kw):
    """One 0 -> 9 stream through reorder NICs; returns (delivered, nics)."""
    sim = Simulator()
    net = _spray_net(sim, drop=drop, skew=skew)
    params = params or ReorderParams(tx_window=4, rx_window=8, cache_capacity=4)
    nics = net.attach_nics(
        lambda n: ReorderTolerantNIC(
            sim, n, policy=policy, params=params, retx_timeout=900, **nic_kw,
        )
    )
    factory = PacketFactory(0, bulk_threshold=1000)
    feed(sim, nics[0], factory.message(9, count))
    delivered = drain_all(sim, nics, count, horizon=horizon)
    return delivered, nics


class TestSprayFabricPremise:
    def test_spray_fabric_reorders_for_a_plain_receiver(self):
        """The scenario pack's premise: per-packet spraying + path skew
        really does deliver out of order to a NIC that doesn't care."""
        sim = Simulator()
        net = _spray_net(sim, skew=8)
        nics = net.attach_nics(lambda n: PlainNIC(sim, n, out_capacity=256))
        expected = 0
        for src in range(NODES):
            factory = PacketFactory(src, bulk_threshold=1000)
            feed(sim, nics[src], factory.message((src + 5) % NODES, 30))
            expected += 30
        delivered = drain_all(sim, nics, expected, horizon=2_000_000)
        assert len(delivered) == expected
        by_pair = {}
        for p in delivered:
            by_pair.setdefault((p.src, p.dst), []).append(p.pair_seq)
        inversions = sum(
            sum(1 for a, b in zip(seqs, seqs[1:]) if b < a)
            for seqs in by_pair.values()
        )
        assert inversions > 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ReorderParams(tx_window=8, rx_window=4)
        with pytest.raises(ValueError):
            ReorderParams(cache_capacity=-1)
        with pytest.raises(ValueError):
            ReorderTolerantNIC(Simulator(), 0, policy="nope")


class TestRecoveryPolicies:
    @pytest.mark.parametrize("policy", REORDER_POLICIES)
    def test_exactly_once_in_order_under_loss(self, policy):
        delivered, nics = _run_stream(policy, drop=0.05)
        assert [p.pair_seq for p in delivered] == list(range(60))
        assert len({p.uid for p in delivered}) == 60
        assert sum(nic.retransmissions for nic in nics) > 0

    def test_bitmap_sack_recovers_cheaper_than_cumulative_acks(self):
        """Eunomia's point: selective acks resend only what was lost,
        cumulative acks trigger go-back-N storms."""
        _, window_nics = _run_stream("window", drop=0.05)
        _, bitmap_nics = _run_stream("bitmap", drop=0.05)
        window_retx = sum(nic.retransmissions for nic in window_nics)
        bitmap_retx = sum(nic.retransmissions for nic in bitmap_nics)
        assert bitmap_retx <= window_retx

    def test_dropcache_zero_capacity_drops_every_ooo_arrival(self):
        """Jain's drop receiver: with no cache, anything out of order is
        discarded and recovered purely by sender timeout."""
        params = ReorderParams(tx_window=8, rx_window=16, cache_capacity=0)
        delivered, nics = _run_stream(
            "dropcache", skew=8, params=params, horizon=6_000_000,
        )
        assert [p.pair_seq for p in delivered] == list(range(60))
        assert sum(nic.receiver_drops for nic in nics) > 0
        assert all(nic.reorder_cached == 0 for nic in nics)

    def test_adaptive_rto_learns_from_clean_samples(self):
        _, nics = _run_stream("bitmap", drop=0.0, skew=0)
        sender = nics[0]
        assert sender.rtt_samples > 0
        assert 900 // 8 <= sender.retx.current_timeout <= 64 * 900


class TestGracefulDegradation:
    def test_abandoned_stream_resynchronises_past_the_hole(self):
        """A total blackout exhausts retries; the sender writes the window
        off, later packets carry stream_base, and the receiver skips the
        hole instead of stalling -- the run completes with zero invariant
        violations."""
        plan = FaultPlan.from_shorthand(["burst@2000-20000:prob=1.0"])
        result = run_experiment(ExperimentSpec(
            network="fattree-spray",
            traffic=TrafficSpec(
                "incast", IncastConfig(rounds=2, packets_per_round=4,
                                       sync_rounds=False),
            ),
            num_nodes=NODES,
            nic_mode="reorder-window",
            max_retries=3,
            retx_timeout=500,
            seed=5,
            fault_plan=plan,
            observe=Observability(validate=True),
        ))
        assert result.completed, result.stall_report
        abandoned = sum(nic.packets_abandoned for nic in result.nics)
        assert abandoned > 0
        assert result.delivered + result.metrics.abandoned >= result.sent
        assert result.violations == []

    def test_exhausted_retries_raise_when_asked_to(self):
        params = ReorderParams(tx_window=2, rx_window=4)
        with pytest.raises(RuntimeError, match="gave up"):
            _run_stream(
                "window", count=8, drop=1.0, params=params,
                on_exhaust="raise", max_retries=2, horizon=200_000,
            )


class TestReorderDepthMetric:
    def test_collector_measures_depth_on_spray_and_zero_on_fattree(self):
        for network, skew, expect_depth in (
            ("fattree-spray", 8, True), ("fattree", 0, False),
        ):
            spec = ExperimentSpec(
                network=network,
                traffic=TrafficSpec(
                    "incast", IncastConfig(rounds=2, packets_per_round=6),
                ),
                num_nodes=NODES,
                nic_mode="reorder-bitmap" if expect_depth else "nifdy",
                seed=2,
                network_overrides={"path_skew": skew} if skew else None,
            )
            result = run_experiment(spec)
            depth = result.metrics.reorder_depth
            assert depth.count > 0
            assert result.metrics.reorder_depth_by_pair
            if expect_depth:
                assert depth.maximum > 0
            else:
                assert depth.maximum == 0
