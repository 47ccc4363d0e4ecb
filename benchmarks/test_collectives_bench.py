"""NIC-offloaded vs host barrier latency under heavy background traffic.

The headline artifact of the collectives subsystem: an allreduce workload
whose every round also pushes a large background message through the
fabric, run once with the host-side flat combine (the CM-5-style
dedicated-hardware barrier model: a fixed release cost, no data-network
involvement) and once with barriers/reductions offloaded onto the NIC
combining tree, whose contribution and release packets share the loaded
request/reply networks with the background traffic.

The comparison quantifies what running collectives over the *data*
network costs relative to an idealised control network -- and that the
offloaded tree stays correct (driver-verified reductions, zero invariant
violations) while the fabric is saturated.
"""

from repro.experiments import ExperimentSpec, run_experiment
from repro.nic import CollectiveParams
from repro.obs import Observability, metrics_json
from repro.traffic import AllReduceConfig, TrafficSpec

from conftest import BENCH_SEED

NODES = 16
ROUNDS = 8
#: Large per-round background message (words) -- keeps the fabric loaded
#: while every collective is in flight.
BACKGROUND_WORDS = 96


def _run(barrier: str):
    return run_experiment(ExperimentSpec(
        network="fattree",
        traffic=TrafficSpec("allreduce", AllReduceConfig(
            rounds=ROUNDS, background_words=BACKGROUND_WORDS,
        )),
        num_nodes=NODES,
        max_cycles=5_000_000,
        seed=BENCH_SEED,
        collective_params=CollectiveParams(barrier=barrier),
        observe=Observability(validate=True, events=True),
    ))


def run_offload():
    return {barrier: _run(barrier) for barrier in ("host", "nic")}


def test_barrier_offload(benchmark, report):
    results = benchmark.pedantic(run_offload, rounds=1, iterations=1)
    report.line(f"Barrier offload: {ROUNDS}-round driver-verified allreduce "
                f"on the {NODES}-node fat tree, {BACKGROUND_WORDS} background "
                "words per node per round")
    report.line(f"{'barrier':8s}{'cycles':>10s}{'mean':>8s}{'p50':>7s}"
                f"{'p99':>7s}{'max':>7s}  (barrier latency, cycles)")

    mean, p99, maximum, cycles, violations = {}, {}, {}, {}, {}
    for barrier, res in results.items():
        assert res.completed, barrier
        assert res.violations == [], barrier
        hist = res.metrics.barrier_latency
        assert hist.count == ROUNDS * NODES, barrier
        mean[barrier] = hist.mean
        p99[barrier] = hist.p99
        maximum[barrier] = hist.maximum
        cycles[barrier] = res.cycles
        violations[barrier] = len(res.violations)
        report.line(f"{barrier:8s}{res.cycles:>10,}{hist.mean:>8.0f}"
                    f"{hist.p50:>7}{hist.p99:>7}{hist.maximum:>7}")

    nic_doc = metrics_json(results["nic"])
    counters = nic_doc["collectives"]
    report.line(f"NIC tree: {counters['coll_completed']} collectives "
                f"completed, {counters['coll_contribs_sent']} contributions, "
                f"{counters['coll_releases_sent']} releases, "
                f"{counters['coll_retransmits']} retransmit(s), "
                f"{counters['coll_duplicates']} duplicate(s)")

    report.record("barrier_latency_mean", mean)
    report.record("barrier_latency_p99", p99)
    report.record("barrier_latency_max", maximum)
    report.record("cycles", cycles)
    report.record("violations", violations)
    report.record("collectives", counters)

    # Correctness is the hard claim: the driver verified every reduced
    # value against the closed form, the monitor saw no violation, and the
    # root completed exactly one collective per round.
    assert counters["coll_completed"] == ROUNDS
    report.check_claims()
