"""Figure 2: packets delivered under HEAVY synthetic traffic.

Paper: every node sends each phase (message lengths U[1,5], 8-word packets);
the metric is packets delivered network-wide in a fixed window, for three
NIC configurations per network: no NIFDY, buffering only, and NIFDY with the
per-network best parameters.  The paper's claims, judged by the ``fig2.*``
rows of :mod:`repro.report.claims`:

* NIFDY delivers more packets than the bare network interface on every
  congestible topology;
* NIFDY is roughly comparable to spending the same buffer budget without
  the protocol ("comparable to that of having added more buffers"), and
  ahead of it on the adaptive/blocking-prone networks;
* these bars do NOT include the in-order payload benefit (Figure 2's
  caption) -- that shows up in Figures 6-8.
"""

from repro.experiments import ExperimentSpec, heavy_synthetic
from repro.networks import NETWORK_NAMES

from conftest import BENCH_CYCLES, BENCH_SEED

MODES = ("plain", "buffered", "nifdy-")


def synthetic_specs(traffic):
    return [
        ExperimentSpec(
            network=network, traffic=traffic(), num_nodes=64,
            nic_mode=mode, run_cycles=BENCH_CYCLES, seed=BENCH_SEED,
            label=f"{network}/{mode}",
        )
        for network in NETWORK_NAMES
        for mode in MODES
    ]


def run_synthetic(engine, traffic):
    points = iter(engine.run(synthetic_specs(traffic)))
    return {
        network: {mode: next(points).delivered for mode in MODES}
        for network in NETWORK_NAMES
    }


def report_synthetic(report, figure, load, rows):
    """Archive the per-network table and judge the figure's claims."""
    report.line(f"{figure}: packets delivered in {BENCH_CYCLES:,} cycles, "
                f"{load} traffic")
    report.line(f"{'network':16s}{'no NIFDY':>10s}{'buffers':>10s}{'NIFDY':>10s}"
                f"{'NIFDY/plain':>13s}")
    for network, row in rows.items():
        ratio = row["nifdy-"] / row["plain"]
        report.line(
            f"{network:16s}{row['plain']:>10,}{row['buffered']:>10,}"
            f"{row['nifdy-']:>10,}{ratio:>12.2f}x"
        )
    report.record("delivered", rows)
    report.check_claims()


def test_fig2_heavy_synthetic(benchmark, report, engine):
    rows = benchmark.pedantic(run_synthetic, args=(engine, heavy_synthetic),
                              rounds=1, iterations=1)
    report_synthetic(report, "Figure 2", "heavy", rows)
