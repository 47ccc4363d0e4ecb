"""Ablations of NIFDY's design choices and Section 6 extensions.

1. **Scalar ack timing** (footnote 2): ack when the processor accepts the
   packet (the paper's choice) vs when the packet enters the arrivals FIFO
   -- the paper found acking early "surprisingly less effective" because it
   decouples admission from the receiver's actual consumption rate; the
   difference shows when receivers are slow (light traffic with
   non-responsive periods).
2. **Ack combining** (Section 2.4.2): one ack per W/2 packets vs an ack per
   packet (Equation 3 vs Equation 4) -- combining must not cost throughput
   while sending half the acks.
3. **Retransmission timeout** (Section 6.2): the one parameter the lossy
   extension is sensitive to (the paper compares this sensitivity to
   Compressionless Routing's abort timeout).
"""

from repro.experiments import (
    ExperimentSpec, cshift, light_synthetic, run_experiment,
)
from repro.nic import NifdyParams
from repro.traffic import CShiftConfig

from conftest import BENCH_CYCLES, BENCH_SEED


def run_ablations():
    out = {}
    # 1: ack timing, light traffic (slow receivers are the point)
    for label, on_insert in (("ack on accept", False), ("ack on insert", True)):
        params = NifdyParams(
            opt_size=8, pool_size=8, dialogs=1, window=2,
            scalar_ack_on_insert=on_insert,
        )
        out[label] = run_experiment(ExperimentSpec(
            network="fattree", traffic=light_synthetic(), num_nodes=64,
            nic_mode="nifdy-", nifdy_params=params, run_cycles=BENCH_CYCLES,
            seed=BENCH_SEED,
        )).delivered
    # 2: ack combining on a long-message workload over the high-latency tree
    for label, ack_every in (("combined acks (W/2)", None), ("per-packet acks", 1)):
        params = NifdyParams(
            opt_size=8, pool_size=8, dialogs=1, window=8, ack_every=ack_every
        )
        result = run_experiment(ExperimentSpec(
            network="fattree-sf",
            traffic=cshift(CShiftConfig(words_per_phase=60)),
            num_nodes=64,
            nic_mode="nifdy",
            nifdy_params=params,
            seed=BENCH_SEED,
            max_cycles=20_000_000,
        ))
        acks = sum(nic.acks_sent for nic in result.nics)
        out[label] = (result.cycles, acks)
    # 3: retransmission timeout sweep on a lossy fat tree
    for timeout in (400, 1000, 3000):
        result = run_experiment(ExperimentSpec(
            network="fattree",
            traffic=cshift(CShiftConfig(words_per_phase=24)),
            num_nodes=16,
            nic_mode="nifdy",
            drop_prob=0.08,
            retx_timeout=timeout,
            seed=BENCH_SEED,
            max_cycles=30_000_000,
        ))
        retx = sum(nic.retransmissions for nic in result.nics)
        out[f"retx timeout {timeout}"] = (result.cycles, retx, result.completed)
    return out


def test_ablation_extensions(benchmark, report):
    out = benchmark.pedantic(run_ablations, rounds=1, iterations=1)

    report.line("Ablation 1: scalar ack timing (light traffic, fat tree)")
    accept = out["ack on accept"]
    insert = out["ack on insert"]
    report.line(f"  ack on processor accept : {accept:,} packets")
    report.line(f"  ack on FIFO insert      : {insert:,} packets")

    report.line("")
    report.line("Ablation 2: ack combining (C-shift, store-and-forward fat tree)")
    comb_cycles, comb_acks = out["combined acks (W/2)"]
    pp_cycles, pp_acks = out["per-packet acks"]
    report.line(f"  combined (W/2): {comb_cycles:>10,} cycles, {comb_acks:>8,} acks")
    report.line(f"  per-packet    : {pp_cycles:>10,} cycles, {pp_acks:>8,} acks")

    report.line("")
    report.line("Ablation 3: retransmission timeout on an 8%-lossy fat tree")
    for timeout in (400, 1000, 3000):
        cycles, retx, completed = out[f"retx timeout {timeout}"]
        report.line(
            f"  timeout={timeout:>5} : {cycles:>10,} cycles, "
            f"{retx:>5} retransmissions, completed={completed}"
        )

    report.record("ack_timing_delivered",
                  {"ack on accept": accept, "ack on insert": insert})
    report.record("ack_combining", {
        "combined (W/2)": {"cycles": comb_cycles, "acks": comb_acks},
        "per-packet": {"cycles": pp_cycles, "acks": pp_acks},
    })
    report.record("retx_timeout", {
        str(timeout): dict(zip(("cycles", "retransmissions", "completed"),
                               out[f"retx timeout {timeout}"]))
        for timeout in (400, 1000, 3000)
    })

    # Ablation 3: every timeout completes.
    for timeout in (400, 1000, 3000):
        assert out[f"retx timeout {timeout}"][2], timeout
    # The ``ablation.*`` claims; EXPERIMENTS.md discusses why insert-time
    # acking is slightly ahead here (the paper found the opposite).
    report.check_claims()
