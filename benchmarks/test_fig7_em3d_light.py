"""Figure 7: EM3D cycles per iteration, LIGHT communication.

Paper parameters n_nodes=200, d_nodes=10, local_p=80, dist_span=5 (most
arcs stay on-processor), run here at reduced graph scale.  Four NIC
configurations per network; for the in-order topologies (2D mesh,
butterfly) the in-order-aware library is used in every configuration, as in
the paper.  Claims, judged by the ``fig7.*`` rows of
:mod:`repro.report.claims`:

* "Without in-order delivery, the difference between NIFDY and the
  buffers-only configurations is negligible";
* "Once the library takes advantage of the in-order delivery provided by
  NIFDY, it outperforms the buffers-only configuration in all cases";
* under light loads the in-order benefit is modest (the paper quotes ~10%).
"""

from repro.experiments import ExperimentSpec, em3d, run_experiment
from repro.traffic import Em3dConfig

from conftest import BENCH_SEED

NETWORKS = (
    "fattree", "cm5", "fattree-sf", "mesh2d", "torus2d", "mesh3d", "butterfly",
)
MODES = ("plain", "buffered", "nifdy-", "nifdy")
SCALE = 0.12
ITERATIONS = 2


def _config():
    return Em3dConfig.light_communication(scale=SCALE, iterations=ITERATIONS)


def run_em3d(config):
    """Cycles per iteration per network and mode, and which networks
    deliver in order by construction."""
    rows, in_order = {}, {}
    for network in NETWORKS:
        rows[network] = {}
        for mode in MODES:
            result = run_experiment(ExperimentSpec(
                network=network, traffic=em3d(config), num_nodes=64,
                nic_mode=mode, seed=BENCH_SEED, max_cycles=30_000_000,
            ))
            assert result.completed, (network, mode)
            rows[network][mode] = result.drivers[0].cycles_per_iteration()
            in_order[network] = result.network_obj.delivers_in_order
    return rows, in_order


def report_em3d(report, title, rows, in_order):
    report.record("cycles_per_iteration", rows)
    report.record("delivers_in_order", in_order)
    report.line(title)
    report.line(f"{'network':14s}" + "".join(f"{m:>11s}" for m in MODES)
                + f"{'gain':>8s}")
    for network, row in rows.items():
        gain = row["buffered"] / row["nifdy"]
        report.line(
            f"{network:14s}"
            + "".join(f"{row[m]:>11,.0f}" for m in MODES)
            + f"{gain:>7.2f}x"
        )
    report.line("(cells: cycles per EM3D iteration, lower is better; "
                "gain = buffers-only / NIFDY)")
    report.check_claims()


def test_fig7_em3d_light(benchmark, report):
    rows, in_order = benchmark.pedantic(run_em3d, args=(_config(),), rounds=1, iterations=1)
    cfg = _config()
    report_em3d(
        report,
        f"Figure 7: EM3D, light communication (n={cfg.n_nodes}, d={cfg.d_nodes}, "
        f"local_p={cfg.local_p}, span={cfg.dist_span})",
        rows, in_order,
    )
