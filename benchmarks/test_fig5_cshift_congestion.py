"""Figure 5: per-receiver pending packets during the C-shift.

Paper: on the 32-node CM-5 network without barriers, nodes that finish a
phase early give some receivers two senders; packets accumulate outside
those receivers (dark streaks) and the condition snowballs.  With NIFDY the
perturbations dissipate and utilisation stays even, because the "rightful"
sender owns the receiver's bulk dialog and finishes quickly.

The bench reproduces both heatmaps (archived in the results file) and
judges the summary statistics by the ``fig5.*`` claims: NIFDY's mean peak
per-receiver backlog is smaller and the same traffic finishes no later.
"""

from repro.experiments import ExperimentSpec, cshift, run_experiment
from repro.obs import Observability
from repro.traffic import CShiftConfig

from conftest import BENCH_SEED

NODES = 32
WORDS = 90


def run_figure5():
    results = {}
    for label, mode in (("plain", "plain"), ("nifdy", "nifdy")):
        results[label] = run_experiment(ExperimentSpec(
            network="cm5",
            traffic=cshift(CShiftConfig(words_per_phase=WORDS, barriers=False)),
            num_nodes=64,
            active_nodes=NODES,
            nic_mode=mode,
            seed=BENCH_SEED,
            observe=Observability(events=False, sample_interval=4000),
            max_cycles=10_000_000,
        ))
    return results


def test_fig5_cshift_congestion(benchmark, report):
    results = benchmark.pedantic(run_figure5, rounds=1, iterations=1)
    plain, nifdy = results["plain"], results["nifdy"]
    report.line("Figure 5: pending packets per receiver, C-shift on the "
                f"{NODES}-node CM-5 network (no barriers)")
    for label, res in results.items():
        report.line(
            f"  {label:6s} finished={res.cycles:>9,} cycles  "
            f"mean peak backlog={res.obs.sampler.mean_peak_pending():5.2f}  "
            f"worst backlog={res.obs.sampler.peak_pending()}"
        )
    for label, res in results.items():
        report.line("")
        report.line(f"  heatmap ({label}); one row per 4000 cycles, one column "
                    "per receiver, darker = more pending:")
        for row in res.obs.sampler.heatmap_rows():
            report.line("   |" + row[:NODES] + "|")

    report.record("finished_cycles",
                  {label: res.cycles for label, res in results.items()})
    report.record("mean_peak_backlog",
                  {label: res.obs.sampler.mean_peak_pending()
                   for label, res in results.items()})
    report.record("worst_backlog",
                  {label: res.obs.sampler.peak_pending()
                   for label, res in results.items()})

    assert plain.completed and nifdy.completed
    report.check_claims()
