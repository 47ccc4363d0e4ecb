"""Figure 9: radix-sort scan phase, with and without inter-send delays.

Paper (Section 4.5): the scan is a per-bucket parallel prefix flowing
processor 0 -> 1 -> ... -> P-1.  Without inserted delays "the sends from
one processor cause the next processor in the pipeline to continually
receive with no chance to send, serializing the entire scan".  Findings
(the first and last judged by the ``fig9.*`` rows of
:mod:`repro.report.claims`, the second shown in the table):

* inserting delays helps in all cases, but is far more critical without
  NIFDY (NIFDY's ack pacing throttles the sender by itself);
* higher-latency networks (store-and-forward fat tree) gain more from
  NIFDY than low-latency ones (full fat tree);
* the coalesce phase (random single-packet sends) is virtually identical
  with and without NIFDY -- the protocol's restrictiveness does not hurt.
"""

from repro.experiments import ExperimentSpec, radix_sort, run_experiment
from repro.traffic import RadixSortConfig

from conftest import BENCH_SEED

FAT_TREES = ("fattree", "cm5", "fattree-sf")
DELAY = 150
BUCKETS = 128


def scan_cycles(network, nic_mode, delay, run_coalesce=False):
    result = run_experiment(ExperimentSpec(
        network=network,
        traffic=radix_sort(
            RadixSortConfig(
                buckets=BUCKETS,
                inter_send_delay=delay,
                run_coalesce=run_coalesce,
            )
        ),
        num_nodes=64,
        nic_mode=nic_mode,
        seed=BENCH_SEED,
        max_cycles=40_000_000,
    ))
    assert result.completed, (network, nic_mode, delay)
    scan = max(d.scan_finished_cycle for d in result.drivers)
    coalesce = None
    if run_coalesce:
        coalesce = max(d.coalesce_finished_cycle for d in result.drivers) - scan
    return scan, coalesce


def run_figure9():
    rows = {}
    for network in FAT_TREES:
        rows[network] = {
            ("plain", "no delay"): scan_cycles(network, "plain", 0)[0],
            ("plain", "delay"): scan_cycles(network, "plain", DELAY)[0],
            ("nifdy", "no delay"): scan_cycles(network, "nifdy", 0)[0],
            ("nifdy", "delay"): scan_cycles(network, "nifdy", DELAY)[0],
        }
    coalesce = {
        mode: scan_cycles("fattree", mode, 0, run_coalesce=True)[1]
        for mode in ("plain", "nifdy")
    }
    return rows, coalesce


def test_fig9_radix_scan(benchmark, report):
    rows, coalesce = benchmark.pedantic(run_figure9, rounds=1, iterations=1)
    report.line(f"Figure 9: cycles for one scan phase ({BUCKETS}-bucket radix, "
                f"64 processors; 'delay' = {DELAY} cycles between sends)")
    report.line(f"{'network':14s}{'plain':>12s}{'plain+dly':>12s}"
                f"{'NIFDY':>12s}{'NIFDY+dly':>12s}")
    for network, row in rows.items():
        report.line(
            f"{network:14s}{row[('plain', 'no delay')]:>12,}"
            f"{row[('plain', 'delay')]:>12,}"
            f"{row[('nifdy', 'no delay')]:>12,}"
            f"{row[('nifdy', 'delay')]:>12,}"
        )
    report.line("")
    report.line(f"coalesce phase (fattree): plain={coalesce['plain']:,} "
                f"nifdy={coalesce['nifdy']:,} cycles")
    report.record("scan_cycles", {
        f"{network}/{mode}/{delay.replace(' ', '-')}": cycles
        for network, row in rows.items()
        for (mode, delay), cycles in row.items()
    })
    report.record("coalesce_cycles", coalesce)
    # The CM-5's 4-bit time-multiplexed links are slow enough to act as a
    # built-in delay, so its scan never serialises (EXPERIMENTS.md
    # divergence 3); the serialisation claims read the byte-wide trees.
    report.check_claims()
