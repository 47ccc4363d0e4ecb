"""Table 3: characteristics of the simulated 64-node networks and the best
NIFDY parameters for each.

Left half (measured): volume, bisection bandwidth, hop statistics, and the
fitted latency formula for all eight networks.  Right half (swept): the
(O, W) choice that maximises combined heavy+light synthetic throughput,
compared against the library's tuned defaults.

Claims (the ``table3.*`` rows of :mod:`repro.report.claims`):

* the mesh has the smallest bisection bandwidth, the full fat tree (and
  butterfly) the largest, the CM-5 variant narrower still and far below
  the full tree;
* restrictive admission (O <= 4) is at or near the best on the mesh, and
  O=8 at or near the best on the fat tree.
"""

from repro.analysis import characterize
from repro.experiments import ExperimentSpec, heavy_synthetic, light_synthetic
from repro.networks import NETWORK_NAMES
from repro.nic import NifdyParams

from conftest import BENCH_CYCLES, BENCH_SEED

SWEEP_NETWORKS = ("mesh2d", "fattree")
O_CHOICES = (2, 4, 8)
W_CHOICES = (2, 8)
SWEEP_CYCLES = max(5000, BENCH_CYCLES // 2)


def table3_sweep_specs():
    specs = []
    for network in SWEEP_NETWORKS:
        for o in O_CHOICES:
            for w in W_CHOICES:
                params = NifdyParams(opt_size=o, pool_size=8, dialogs=1, window=w)
                for traffic in (heavy_synthetic(), light_synthetic()):
                    specs.append(ExperimentSpec(
                        network=network, traffic=traffic, num_nodes=64,
                        nic_mode="nifdy-", nifdy_params=params,
                        run_cycles=SWEEP_CYCLES, seed=BENCH_SEED,
                        label=f"{network}/O={o}/W={w}/{traffic.name}",
                    ))
    return specs


def run_table3(engine):
    rows = {
        name: characterize(name, 64, hop_sample=400, measure_latency=True)
        for name in NETWORK_NAMES
    }
    points = iter(engine.run(table3_sweep_specs()))
    sweep = {}
    for network in SWEEP_NETWORKS:
        for o in O_CHOICES:
            for w in W_CHOICES:
                sweep[(network, o, w)] = (
                    next(points).delivered + next(points).delivered
                )
    return rows, sweep


def test_table3_characteristics(benchmark, report, engine):
    rows, sweep = benchmark.pedantic(run_table3, args=(engine,), rounds=1,
                                     iterations=1)
    report.line("Table 3 (left): measured 64-node network characteristics")
    report.line(
        f"{'network':16s}{'volume':>9s}{'bisect':>9s}{'avg d':>7s}{'max d':>7s}"
        f"{'in-order':>10s}  latency fit"
    )
    for name, row in rows.items():
        report.line(
            f"{name:16s}{row.volume_words_per_node:>8.1f}w"
            f"{row.bisection_bytes_per_cycle:>8.1f}B"
            f"{row.avg_hops:>7.1f}{row.max_hops:>7d}"
            f"{str(row.delivers_in_order):>10s}  {row.formula()}"
        )
    report.line("")
    report.line(f"Table 3 (right): (O, W) sweep, heavy+light packets in "
                f"2x{SWEEP_CYCLES:,} cycles")
    best_cells = {}
    for network in SWEEP_NETWORKS:
        cells = {
            (o, w): sweep[(network, o, w)] for o in O_CHOICES for w in W_CHOICES
        }
        best = max(cells, key=cells.get)
        best_cells[network] = f"O={best[0]} W={best[1]}"
        report.line(f"  {network}: best O={best[0]} W={best[1]}")
        for o in O_CHOICES:
            report.line(
                "    " + "".join(
                    f"O={o} W={w}: {cells[(o, w)]:>6,}   " for w in W_CHOICES
                )
            )

    report.record("characteristics", {
        name: {
            "volume_words_per_node": row.volume_words_per_node,
            "bisection_bytes_per_cycle": row.bisection_bytes_per_cycle,
            "avg_hops": row.avg_hops,
            "max_hops": row.max_hops,
            "delivers_in_order": row.delivers_in_order,
            "formula": row.formula(),
        }
        for name, row in rows.items()
    })
    report.record("best_params", best_cells)
    report.record("sweep_cells", {
        f"{network}/O={o}/W={w}": sweep[(network, o, w)]
        for network in SWEEP_NETWORKS for o in O_CHOICES for w in W_CHOICES
    })

    # Only the single-VC mesh-family and the dilation-1 butterfly deliver
    # in order by construction.
    assert rows["mesh2d"].delivers_in_order
    assert rows["butterfly"].delivers_in_order
    assert not rows["fattree"].delivers_in_order
    report.check_claims()
