"""Integration tests for the experiment runner across workloads and NICs."""

from dataclasses import dataclass

import pytest

from repro.experiments import (
    ExperimentSpec,
    best_params,
    cshift,
    em3d,
    heavy_synthetic,
    light_synthetic,
    radix_sort,
    run_experiment,
)
from repro.nic import NifdyParams
from repro.node import Done, Send, TrafficDriver
from repro.obs import Observability
from repro.packets import Packet, PacketKind
from repro.traffic import (
    CShiftConfig,
    Em3dConfig,
    RadixSortConfig,
    SyntheticConfig,
    TrafficSpec,
    register_traffic,
)


class _OneSend(TrafficDriver):
    """Sends one scalar packet to ``dst`` (if any), then is done."""

    def __init__(self, node, dst):
        self.node = node
        self.dst = dst

    def next_action(self):
        if self.dst is None:
            return Done()
        dst, self.dst = self.dst, None
        return Send(Packet(src=self.node, dst=dst, kind=PacketKind.SCALAR,
                           size_bytes=8))


@dataclass
class _OneSendConfig:
    """Node 0 sends one packet to ``dst``; the others have no work."""

    dst: int = 5


@pytest.fixture
def one_send_registered():
    """Register the one-packet workload for one test, then clean up so
    registry-completeness assertions elsewhere stay honest."""
    from repro.traffic import registry

    register_traffic(
        "one_send", _OneSendConfig,
        lambda node, n, cfg, rngf, exploit: _OneSend(
            node, dst=cfg.dst if node == 0 else None
        ),
    )
    try:
        yield
    finally:
        registry._REGISTRY.pop("one_send", None)


class TestSyntheticRuns:
    @pytest.mark.parametrize("mode", ["plain", "buffered", "nifdy", "nifdy-"])
    def test_heavy_all_modes_deliver(self, mode):
        result = run_experiment(ExperimentSpec(
            network="mesh2d", traffic=heavy_synthetic(), num_nodes=16,
            nic_mode=mode, run_cycles=15_000, seed=2,
        ))
        assert result.delivered > 100
        assert result.sent >= result.delivered
        assert result.cycles == 15_000

    def test_nifdy_never_misorders(self):
        result = run_experiment(ExperimentSpec(
            network="multibutterfly", traffic=heavy_synthetic(), num_nodes=16,
            nic_mode="nifdy", run_cycles=15_000, seed=3,
        ))
        assert result.order_violations == 0

    def test_light_traffic_runs(self):
        result = run_experiment(ExperimentSpec(
            network="fattree", traffic=light_synthetic(), num_nodes=16,
            nic_mode="nifdy", run_cycles=15_000, seed=4,
        ))
        assert result.delivered > 0

    def test_throughput_property(self):
        result = run_experiment(ExperimentSpec(
            network="mesh2d", traffic=heavy_synthetic(), num_nodes=16,
            nic_mode="nifdy", run_cycles=10_000, seed=5,
        ))
        assert result.throughput == pytest.approx(
            1000 * result.delivered / result.cycles
        )

    def test_same_seed_is_deterministic(self):
        results = [
            run_experiment(ExperimentSpec(
                network="torus2d", traffic=heavy_synthetic(), num_nodes=16,
                nic_mode="nifdy", run_cycles=8_000, seed=7,
            )).delivered
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_unknown_nic_mode_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentSpec(
                network="mesh2d", traffic=heavy_synthetic(), num_nodes=16,
                nic_mode="warp", run_cycles=100,
            ))


class TestLegacyShim:
    def test_non_spec_first_argument_rejected(self):
        with pytest.raises(TypeError, match="ExperimentSpec"):
            run_experiment("mesh2d", heavy_synthetic(), num_nodes=16)

    def test_spec_call_rejects_extra_arguments(self):
        spec = ExperimentSpec(
            network="mesh2d", traffic=heavy_synthetic(), run_cycles=100,
        )
        with pytest.raises(TypeError, match="no further arguments"):
            run_experiment(spec, seed=3)


class TestCompletionRuns:
    def test_cshift_completes(self):
        result = run_experiment(ExperimentSpec(
            network="cm5", traffic=cshift(CShiftConfig(words_per_phase=24)),
            num_nodes=16, nic_mode="nifdy", seed=1,
        ))
        assert result.completed
        assert result.delivered == result.sent
        assert result.order_violations == 0

    def test_em3d_reports_cycles_per_iteration(self):
        result = run_experiment(ExperimentSpec(
            network="fattree",
            traffic=em3d(Em3dConfig(n_nodes=15, d_nodes=4, local_p=50,
                                    dist_span=3, iterations=2)),
            num_nodes=16, nic_mode="nifdy", seed=1,
        ))
        assert result.completed
        cpi = result.drivers[0].cycles_per_iteration()
        assert cpi > 0

    def test_radix_scan_completes_and_reports(self):
        result = run_experiment(ExperimentSpec(
            network="fattree", traffic=radix_sort(RadixSortConfig(buckets=24)),
            num_nodes=16, nic_mode="plain", seed=1,
        ))
        assert result.completed
        finish = max(d.scan_finished_cycle for d in result.drivers)
        assert finish > 0

    def test_idle_processors_are_parked(self):
        result = run_experiment(ExperimentSpec(
            network="cm5", traffic=cshift(CShiftConfig(words_per_phase=24)),
            num_nodes=16, active_nodes=8, nic_mode="nifdy", seed=1,
        ))
        assert result.completed
        assert result.delivered == result.sent > 0
        idle = result.processors[8:]
        assert all(proc.done and proc.busy_cycles == 0 for proc in idle)
        assert all(proc.busy_cycles > 0 for proc in result.processors[:8])

    @pytest.mark.parametrize("mode", ["plain", "nifdy", "reorder-bitmap"])
    def test_data_packet_to_an_idle_node_raises(self, mode,
                                                one_send_registered):
        # Node 0 sends one scalar packet to node 5, outside the 4 active
        # nodes; the others have no work.
        spec = ExperimentSpec(
            network="fattree", traffic=TrafficSpec("one_send"), num_nodes=16,
            active_nodes=4, nic_mode=mode, seed=1,
        )
        with pytest.raises(RuntimeError, match="idle node 5"):
            run_experiment(spec)

    def test_incomplete_run_flagged(self):
        result = run_experiment(ExperimentSpec(
            network="mesh2d", traffic=cshift(CShiftConfig(words_per_phase=400)),
            num_nodes=16, nic_mode="plain", seed=1, max_cycles=3_000,
        ))
        assert not result.completed


class TestNicModes:
    def test_buffered_budget_matches_nifdy(self):
        params = NifdyParams(pool_size=8, dialogs=1, window=8)
        result = run_experiment(ExperimentSpec(
            network="mesh2d", traffic=heavy_synthetic(), num_nodes=16,
            nic_mode="buffered", nifdy_params=params, run_cycles=5_000,
        ))
        nic = result.nics[0]
        assert nic.total_buffers == params.total_buffers

    def test_best_params_table_covers_all_networks(self):
        from repro.networks import NETWORK_NAMES

        for name in NETWORK_NAMES:
            params = best_params(name)
            assert params.opt_size >= 1

    def test_best_params_unknown_network(self):
        with pytest.raises(ValueError):
            best_params("hypercube")

    def test_congestion_tracking(self):
        observe = Observability(events=False, sample_interval=500)
        result = run_experiment(ExperimentSpec(
            network="mesh2d", traffic=heavy_synthetic(), num_nodes=16,
            nic_mode="plain", run_cycles=8_000, observe=observe,
        ))
        sampler = result.obs.sampler
        assert len(sampler.pending) == 16  # cycles 0, 500, ..., 7500
        assert all(len(row) == 16 for row in sampler.pending)
        assert sampler.peak_pending() > 0
        assert sampler.packets_in_network == [sum(r) for r in sampler.pending]


class TestLossyRuns:
    def test_lossy_network_uses_retransmitting_nic(self):
        from repro.nic import RetransmittingNifdyNIC

        result = run_experiment(ExperimentSpec(
            network="fattree", traffic=cshift(CShiftConfig(words_per_phase=16)),
            num_nodes=16, nic_mode="nifdy", drop_prob=0.05, retx_timeout=600,
            seed=2, max_cycles=3_000_000,
        ))
        assert isinstance(result.nics[0], RetransmittingNifdyNIC)
        assert result.completed
        assert result.order_violations == 0
