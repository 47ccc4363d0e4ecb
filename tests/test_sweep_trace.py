"""Tests for the sweep spec generators, run through the engine, and the
packet tracer."""

import pytest

from repro.cli import rank_param_sets
from repro.experiments import (
    ExperimentSpec,
    default_param_grid,
    run_experiment,
    SweepEngine,
    heavy_synthetic,
    machine_size_specs,
    nifdy_param_specs,
    offered_load_specs,
)
from repro.metrics import PacketTracer
from repro.nic import NifdyParams


class TestParamSweep:
    def test_grid_shape(self):
        grid = default_param_grid(opt_sizes=(2, 8), windows=(0, 4))
        assert len(grid) == 4
        no_bulk = [p for p in grid if p.window == 0]
        assert all(p.dialogs == 0 for p in no_bulk)

    def test_points_sorted_best_first(self):
        grid = default_param_grid(opt_sizes=(2, 8), windows=(0, 2))
        points = rank_param_sets(SweepEngine(cache=False).run(
            nifdy_param_specs("fattree", grid, num_nodes=16, run_cycles=4000,
                              combine_light_and_heavy=False)
        ), runs_per_set=1)
        assert len(points) == 4
        delivered = [p.delivered for p in points]
        assert delivered == sorted(delivered, reverse=True)
        assert all("O=" in p.label for p in points)

    def test_throughput_property(self):
        grid = [NifdyParams(opt_size=4, pool_size=8, dialogs=0, window=0)]
        point = rank_param_sets(SweepEngine(cache=False).run(
            nifdy_param_specs("mesh2d", grid, num_nodes=16, run_cycles=4000,
                              combine_light_and_heavy=False)
        ), runs_per_set=1)[0]
        assert point.throughput == pytest.approx(
            1000.0 * point.delivered / point.cycles
        )


class TestLoadSweep:
    def test_throughput_monotone_in_offered_load(self):
        points = SweepEngine(cache=False).run(offered_load_specs(
            "mesh2d", gaps=(2000, 400, 0), num_nodes=16, run_cycles=8000,
        ))
        delivered = [p.delivered for p in points]
        assert delivered[0] < delivered[1] <= delivered[2] * 1.1


class TestMachineSizeSweep:
    PARAMS = NifdyParams(opt_size=8, pool_size=8, dialogs=0, window=0)

    def test_normalized_ratio_shape(self):
        specs = machine_size_specs(
            "fattree", sizes=(16, 64), params=self.PARAMS, run_cycles=5000,
        )
        points = SweepEngine(cache=False).run(specs)
        # Per size: the baseline run, then the NIFDY run.
        assert [p.label for p in points] == [
            "n=16 plain", "n=16 nifdy-", "n=64 plain", "n=64 nifdy-",
        ]
        for base, nifdy in zip(points[::2], points[1::2]):
            assert base.error is None and nifdy.error is None
            assert base.delivered > 0 and nifdy.delivered > 0

    def test_invalid_size_surfaces_as_error(self):
        # A 15-node mesh is not square: both runs of that size error out,
        # rather than reading as zero deliveries.
        specs = machine_size_specs(
            "mesh2d", sizes=(16, 15), params=self.PARAMS, run_cycles=2000,
        )
        points = SweepEngine(cache=False).run(specs)
        assert [p.error is None for p in points] == [True, True, False, False]
        for point in points[2:]:
            assert not point.ok and point.delivered == 0
            assert "15" in point.error


class TestPacketTracer:
    def _traced_run(self):
        from repro.networks import build_network
        from repro.nic import NifdyNIC
        from repro.sim import Simulator
        from conftest import drain_all
        from test_nifdy_protocol import feed, stream

        sim = Simulator()
        net = build_network("fattree", sim, 16)
        nics = net.attach_nics(lambda n: NifdyNIC(sim, n))
        tracer = PacketTracer()
        tracer.attach(nics)
        feed(sim, nics[0], stream(0, 9, 10))
        delivered = drain_all(sim, nics, 10)
        return tracer, delivered

    def test_lifecycle_recorded(self):
        tracer, delivered = self._traced_run()
        assert len(tracer.completed()) == 10
        for trace in tracer.completed():
            assert 0 <= trace.created <= trace.injected <= trace.accepted
            assert trace.src == 0 and trace.dst == 9

    def test_latency_breakdown(self):
        tracer, _ = self._traced_run()
        assert tracer.mean_network_time() > 0
        assert tracer.mean_pool_wait() >= 0

    def test_stragglers_sorted(self):
        tracer, _ = self._traced_run()
        worst = tracer.stragglers(top=3)
        times = [t.network_time for t in worst]
        assert times == sorted(times, reverse=True)

    def test_composes_with_metrics_hooks(self):
        """Tracer chains the collector's hooks instead of clobbering them."""
        result = run_experiment(ExperimentSpec(
            network="mesh2d", traffic=heavy_synthetic(), num_nodes=16,
            nic_mode="nifdy", run_cycles=3000, seed=1,
        ))
        # attach AFTER the collector: both keep working on a fresh run
        from repro.metrics import MetricsCollector

        tracer = PacketTracer()
        tracer.attach(result.nics)
        # the collector's counters were populated during the run
        assert result.metrics.delivered > 0

    def test_record_cap(self):
        tracer = PacketTracer(max_packets=2)
        from conftest import simple_packet

        for i in range(4):
            pkt = simple_packet(0, 1)
            pkt.injected_cycle = i
            tracer.note_inject(pkt)
        assert len(tracer.traces) == 2
        assert tracer.dropped_records == 2
