"""Figure 4: NIFDY resources vs machine size (full fat tree).

Paper: "we ran some simulations of the full fat tree, using only short
messages and no bulk dialogs in order to concentrate on the effects of O
and B".  Left panel: normalized throughput (vs no NIFDY) for pool sizes B;
right panel: for OPT sizes O.  Findings, judged by the ``fig4.*`` rows of
:mod:`repro.report.claims`:

* for a fixed B, the relative benefit of NIFDY does not decrease as the
  machine grows (a designer can size the unit once);
* larger B helps at every size;
* a small constant O (= 8) is at or near the best across sizes.
"""

from repro.experiments import ExperimentSpec, heavy_synthetic
from repro.nic import NifdyParams
from repro.traffic import SyntheticConfig

from conftest import BENCH_CYCLES, BENCH_SEED

SIZES = (16, 64, 256)
B_VALUES = (2, 4, 8)
O_VALUES = (2, 4, 8)
CYCLES = max(6000, BENCH_CYCLES // 2)


def _traffic():
    return heavy_synthetic(
        SyntheticConfig.heavy_traffic(fixed_message_length=1, packets_per_phase=60)
    )


def _spec(size, mode, params=None, label=""):
    return ExperimentSpec(
        network="fattree", traffic=_traffic(), num_nodes=size, nic_mode=mode,
        nifdy_params=params, run_cycles=CYCLES, seed=BENCH_SEED, label=label,
    )


def fig4_specs():
    specs = []
    for size in SIZES:
        specs.append(_spec(size, "plain", label=f"n{size}/plain"))
        for b in B_VALUES:
            params = NifdyParams(opt_size=8, pool_size=b, dialogs=0, window=0)
            specs.append(_spec(size, "nifdy-", params, f"n{size}/B={b}"))
        for o in O_VALUES:
            if o == 8:  # same point as B=8 above
                continue
            params = NifdyParams(opt_size=o, pool_size=8, dialogs=0, window=0)
            specs.append(_spec(size, "nifdy-", params, f"n{size}/O={o}"))
    return specs


def run_figure4(engine):
    points = iter(engine.run(fig4_specs()))
    baseline = {}
    by_b = {}
    by_o = {}
    for size in SIZES:
        baseline[size] = next(points).delivered
        for b in B_VALUES:
            by_b[(size, b)] = next(points).delivered
        for o in O_VALUES:
            if o == 8:
                by_o[(size, o)] = by_b[(size, 8)]
            else:
                by_o[(size, o)] = next(points).delivered
    return baseline, by_b, by_o


def test_fig4_scalability(benchmark, report, engine):
    baseline, by_b, by_o = benchmark.pedantic(run_figure4, args=(engine,),
                                              rounds=1, iterations=1)

    report.record("baseline_delivered", {str(s): baseline[s] for s in SIZES})
    norm = {}
    for title, param, cells, values in (
        ("(left): normalized throughput vs size, varying B "
         f"(O=8, no bulk, {CYCLES:,} cycles)", "B", by_b, B_VALUES),
        ("(right): normalized throughput vs size, varying O (B=8)",
         "O", by_o, O_VALUES),
    ):
        report.line(f"Figure 4 {title}")
        report.line(f"{'nodes':>8s}"
                    + "".join(f"{param + '=' + str(v):>10s}" for v in values))
        for size in SIZES:
            for v in values:
                norm[(size, param, v)] = cells[(size, v)] / baseline[size]
            report.line(f"{size:>8d}" + "".join(
                f"{norm[(size, param, v)]:>10.2f}" for v in values))
        report.line("")
        report.record(f"normalized_by_{'pool' if param == 'B' else 'opt'}", {
            f"n{size}/{param}{v}": norm[(size, param, v)]
            for size in SIZES for v in values
        })
    report.check_claims()
