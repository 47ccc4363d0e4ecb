"""Extension benches: hot-spot throttling, the operating range, and
adaptive mesh routing (Section 1 motivation + Sections 5 and 6.3).

These regenerate the paper's *claims in prose* that have no numbered
figure:

* **Operating range** (Section 1): "Interconnection networks deliver
  maximum performance when the offered load is limited to a fraction of
  the maximum bandwidth ... when the offered load exceeds the operating
  range, throughput falls off".  We sweep offered load via inter-send
  pacing and show the bare NIC's delivered throughput saturating/sagging
  past the knee while NIFDY holds the network at its operating point.
* **Hot-spot bandwidth matching** (Section 5): "NIFDY also handles the more
  general case with multiple nodes sending to one receiver ... throttles
  the combined injection rate of all the senders to a level that the
  receiver can handle".  The observable is background traffic: secondary
  blocking around the hot spot hurts everyone else unless admission is
  controlled.
* **Adaptive mesh** (Section 6.3 future work): "adding the admission
  control and in-order delivery of NIFDY may help adaptive routing reach
  its potential".
"""

from repro.experiments import ExperimentSpec, heavy_synthetic, hotspot
from repro.traffic import HotSpotConfig, SyntheticConfig

from conftest import BENCH_CYCLES, BENCH_SEED

GAPS = (800, 400, 200, 100, 0)  # decreasing gap = increasing offered load


def run_operating_range(engine):
    specs = [
        ExperimentSpec(
            network="torus2d",
            traffic=heavy_synthetic(
                SyntheticConfig.heavy_traffic(send_gap_cycles=gap)
            ),
            num_nodes=64, nic_mode=mode, run_cycles=BENCH_CYCLES,
            seed=BENCH_SEED, label=f"{mode}/gap={gap}",
        )
        for mode in ("plain", "nifdy-")
        for gap in GAPS
    ]
    points = iter(engine.run(specs))
    return {
        mode: [next(points).delivered for _ in GAPS]
        for mode in ("plain", "nifdy-")
    }


def run_hotspot(engine):
    modes = ("plain", "buffered", "nifdy-")
    specs = [
        ExperimentSpec(
            network="mesh2d",
            traffic=hotspot(HotSpotConfig(hot_node=27, hot_fraction=0.3,
                                          packets_per_node=120)),
            num_nodes=64, nic_mode=mode, seed=BENCH_SEED,
            max_cycles=20_000_000, label=f"hotspot/{mode}",
        )
        for mode in modes
    ]
    out = {}
    for mode, point in zip(modes, engine.run(specs)):
        assert point.completed, mode
        out[mode] = point.cycles
    return out


def run_adaptive_mesh(engine):
    pairs = [
        (network, mode)
        for network in ("mesh2d", "mesh2d-adaptive")
        for mode in ("plain", "nifdy-")
    ]
    specs = [
        ExperimentSpec(
            network=network, traffic=heavy_synthetic(), num_nodes=64,
            nic_mode=mode, run_cycles=BENCH_CYCLES, seed=BENCH_SEED,
            label=f"{network}/{mode}",
        )
        for network, mode in pairs
    ]
    return {
        pair: point.delivered for pair, point in zip(pairs, engine.run(specs))
    }


def test_ext_operating_range(benchmark, report, engine):
    curves = benchmark.pedantic(run_operating_range, args=(engine,), rounds=1,
                                iterations=1)
    report.line("Operating range (torus, heavy traffic): delivered packets vs "
                "offered load")
    report.line(f"{'send gap':>10s}{'plain':>10s}{'NIFDY':>10s}")
    for i, gap in enumerate(GAPS):
        report.line(f"{gap:>10d}{curves['plain'][i]:>10,}{curves['nifdy-'][i]:>10,}")

    report.record("send_gaps", list(GAPS))
    report.record("delivered", curves)
    report.check_claims()


def test_ext_hotspot_throttling(benchmark, report, engine):
    out = benchmark.pedantic(run_hotspot, args=(engine,), rounds=1,
                             iterations=1)
    report.line("Hot spot (8x8 mesh, 30% of traffic to node 27): cycles to "
                "drain a fixed workload")
    for mode, cycles in out.items():
        report.line(f"  {mode:9s}: {cycles:>10,} cycles")
    report.record("cycles", out)
    report.check_claims()


def test_ext_adaptive_mesh(benchmark, report, engine):
    out = benchmark.pedantic(run_adaptive_mesh, args=(engine,), rounds=1,
                             iterations=1)
    report.line("Adaptive mesh routing (Section 6.3), heavy traffic, "
                f"{BENCH_CYCLES:,} cycles:")
    for (network, mode), delivered in out.items():
        report.line(f"  {network:16s} {mode:7s}: {delivered:>8,}")
    adaptive_gain = out[("mesh2d-adaptive", "nifdy-")] / out[("mesh2d-adaptive", "plain")]
    dor_gain = out[("mesh2d", "nifdy-")] / out[("mesh2d", "plain")]
    report.line(f"  NIFDY gain: adaptive {adaptive_gain:.2f}x vs "
                f"dimension-order {dor_gain:.2f}x")
    report.record("delivered", {
        f"{network}/{mode}": delivered
        for (network, mode), delivered in out.items()
    })
    report.check_claims()