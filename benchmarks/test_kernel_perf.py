"""Event-kernel throughput bench: every registered scheduler vs heap.

Runs the fixed-seed reference workload (heavy traffic on a fat tree, the
same one ``repro perf`` uses) under every kernel in the scheduler
registry with kernel self-profiling on, records events/sec for each, and
asserts all runs' full metrics JSON is byte-identical to the heap
baseline.  Parity is the only assertion: raw speed depends on the host,
so recording it (into ``BENCH_summary.json``, under the top-level
``kernel`` key) is the job; failing on it is not.
"""

import json

from conftest import BENCH_CYCLES, BENCH_SEED

from repro.experiments import perf_reference_spec, run_experiment
from repro.obs import metrics_json
from repro.sim import DEFAULT_SCHEDULER, scheduler_names

NODES = 64


def test_kernel_events_per_sec(report):
    rows = {}
    for kernel in scheduler_names():
        spec = perf_reference_spec(
            num_nodes=NODES,
            run_cycles=BENCH_CYCLES,
            seed=BENCH_SEED,
            kernel=kernel,
        )
        result = run_experiment(spec)
        profile = result.obs.kernel_profile
        metrics = metrics_json(result)
        metrics.pop("self_profile", None)  # wall-clock, differs every run
        rows[kernel] = {
            "events": profile.events,
            "loop_seconds": round(profile.loop_seconds, 4),
            "events_per_sec": round(profile.events_per_sec, 1),
            "delivered": result.delivered,
            "canon": json.dumps(metrics, sort_keys=True),
        }
        report.line(
            f"{kernel:7s} events={profile.events:>9,}  "
            f"loop={profile.loop_seconds:6.2f}s  "
            f"events/sec={profile.events_per_sec:>10,.0f}"
        )

    baseline = "heap" if "heap" in rows else next(iter(rows))
    mismatched = [
        k for k in rows if rows[k]["canon"] != rows[baseline]["canon"]
    ]
    parity_ok = not mismatched
    base_eps = rows[baseline]["events_per_sec"]
    speedups = {
        k: round(row["events_per_sec"] / base_eps, 3)
        for k, row in rows.items()
        if k != baseline and base_eps and row["events_per_sec"]
    }
    report.line(
        "parity : ok" if parity_ok
        else f"parity : MISMATCH ({', '.join(mismatched)} vs {baseline})"
    )
    for k, v in speedups.items():
        report.line(f"speedup: {k} {v:.2f}x (vs {baseline})")

    report.record("kernel_perf", {
        "workload": {
            "network": "fattree", "nodes": NODES,
            "cycles": BENCH_CYCLES, "seed": BENCH_SEED,
        },
        "kernels": {
            k: {key: v for key, v in row.items() if key != "canon"}
            for k, row in rows.items()
        },
        "speedup": speedups.get(DEFAULT_SCHEDULER, 0.0),
        "speedups": speedups,
        "parity_ok": parity_ok,
    })

    assert parity_ok, (
        f"schedulers diverged on the reference workload: "
        f"{', '.join(mismatched)} vs {baseline} "
        "(metrics JSON not byte-identical)"
    )
