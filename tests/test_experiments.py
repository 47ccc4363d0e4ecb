"""Integration tests for the experiment runner across workloads and NICs."""

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
from repro.traffic import (
    CShiftConfig,
    Em3dConfig,
    RadixSortConfig,
    SyntheticConfig,
)


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
        result = run_experiment(ExperimentSpec(
            network="mesh2d", traffic=heavy_synthetic(), num_nodes=16,
            nic_mode="plain", run_cycles=8_000, track_congestion=True,
            congestion_sample_every=500,
        ))
        assert result.congestion is not None
        assert len(result.congestion.samples) >= 10


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
