"""Figure 6: C-shift throughput on the 32-node CM-5 network.

Paper: "Using NIFDY's congestion control alone results in better
performance than optimized barriers.  When NIFDY's in-order delivery is
exploited, the benefit is even greater."  The four bars:

* no NIFDY, free-running phases,
* no NIFDY with a (Strata-style optimized) barrier per phase,
* NIFDY- (flow control only),
* NIFDY  (in-order delivery exploited by the library).

Metric: effective throughput = payload words moved per kilocycle (the word
count is identical across configurations; the packet count is not, because
the in-order library packs more payload per packet).
"""

from repro.experiments import ExperimentSpec, cshift, run_experiment
from repro.traffic import CShiftConfig

from conftest import BENCH_SEED

NODES = 32
WORDS = 90
TOTAL_WORDS = WORDS * NODES * (NODES - 1)

CONFIGS = (
    ("no NIFDY, no barriers", "plain", False),
    ("no NIFDY, barriers", "plain", True),
    ("NIFDY- (flow ctl only)", "nifdy-", False),
    ("NIFDY (in-order used)", "nifdy", False),
)


def run_figure6():
    results = {}
    for label, mode, barriers in CONFIGS:
        results[label] = run_experiment(ExperimentSpec(
            network="cm5",
            traffic=cshift(CShiftConfig(words_per_phase=WORDS, barriers=barriers)),
            num_nodes=64,
            active_nodes=NODES,
            nic_mode=mode,
            seed=BENCH_SEED,
            max_cycles=10_000_000,
        ))
    return results


def test_fig6_cshift_throughput(benchmark, report):
    results = benchmark.pedantic(run_figure6, rounds=1, iterations=1)
    report.line(f"Figure 6: C-shift on {NODES}-node CM-5 network "
                f"({TOTAL_WORDS:,} payload words total)")
    report.line(f"{'configuration':26s}{'cycles':>12s}{'packets':>10s}"
                f"{'words/kcycle':>14s}")
    tput = {}
    for label, res in results.items():
        assert res.completed, label
        tput[label] = 1000.0 * TOTAL_WORDS / res.cycles
        report.line(
            f"{label:26s}{res.cycles:>12,}{res.delivered:>10,}{tput[label]:>14.1f}"
        )
    report.record("words_per_kcycle", tput)
    report.record("cycles", {label: res.cycles for label, res in results.items()})
    # The ``fig6.*`` claims; NIFDY- vs barriers is EXPERIMENTS.md's
    # divergence 2 (our hardware barrier pays no straggler cost).
    report.check_claims()
