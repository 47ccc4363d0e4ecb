#!/usr/bin/env python
"""Cyclic shift on the CM-5-style network, with and without NIFDY.

Reproduces the Section 4.3 story at demo scale: without barriers, fast
nodes run ahead and pile packets onto doubly-targeted receivers (the dark
streaks of Figure 5); NIFDY's admission control dissipates the pile-ups and
finishes the whole shift earlier than the Strata-style barrier version.

Run:  python examples/cshift_demo.py
"""

from repro.experiments import ExperimentSpec, cshift, run_experiment
from repro.obs import Observability
from repro.traffic import CShiftConfig

NODES = 32
WORDS = 90


def run(label, nic_mode, barriers):
    result = run_experiment(ExperimentSpec(
        network="cm5",
        traffic=cshift(CShiftConfig(words_per_phase=WORDS, barriers=barriers)),
        num_nodes=64,          # the fabric is a 64-leaf CM-5 tree...
        active_nodes=NODES,    # ...populated with 32 processors, as in 4.3
        nic_mode=nic_mode,
        seed=3,
        observe=Observability(events=False, sample_interval=4000),
        max_cycles=8_000_000,
    ))
    peak = result.obs.sampler.mean_peak_pending()
    print(
        f"{label:28s} finished={result.cycles:>9,} cycles  "
        f"packets={result.delivered:>6}  mean peak backlog={peak:5.1f}"
    )
    return result


def main() -> None:
    print(f"C-shift, {NODES}-node CM-5 network, {WORDS} words per phase\n")
    plain = run("no NIFDY, no barriers", "plain", barriers=False)
    barred = run("no NIFDY, barriers", "plain", barriers=True)
    nifdy = run("NIFDY, no barriers", "nifdy", barriers=False)

    print("\nPer-receiver backlog over time (one row per sample, Figure 5):")
    print("\n  without NIFDY:")
    for row in plain.obs.sampler.heatmap_rows()[:14]:
        print("   |" + row[:NODES] + "|")
    print("\n  with NIFDY:")
    for row in nifdy.obs.sampler.heatmap_rows()[:14]:
        print("   |" + row[:NODES] + "|")

    speedup = barred.cycles / nifdy.cycles
    print(f"\nNIFDY finishes {speedup:.2f}x faster than optimized barriers.")


if __name__ == "__main__":
    main()
