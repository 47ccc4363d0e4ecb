"""One measured repetition of one workload, in a fresh interpreter.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload heavy_fattree --seed 3 [--trace]

Prints one JSON object: the wall time, when the first simulated cycle
started, the scheduler that ran, the run's digest, and the summed
counters (plus layer self times with ``--trace``).  ``run.py`` starts one
of these per repetition so that every repetition pays import and assembly
and nothing carries over between repetitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import resource
import statistics
import sys
import time
from typing import Dict, List

import probe
import workloads
from repro.experiments import SweepEngine, run_experiment


def _sum_counts(records: List[Dict], key: str) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for record in records:
        for name, value in record[key].items():
            total[name] = total.get(name, 0) + value
    return total


def measure(name: str, seed: int, trace: bool = False, tiny: bool = False,
            kernel=None) -> Dict:
    """Run the workload once and summarise it."""
    tracer = probe.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.build(name, seed, trace=trace, tiny=tiny, kernel=kernel)
    specs = workload.specs
    if workload.sweep:
        # Pool workers are forked after the probe is installed, so they run
        # the hooks and send each point's record back on this queue.  A
        # record is about 2 KB and the pipe buffers 64 KB, so no worker
        # blocks on it while the engine waits for the workers.
        queue = multiprocessing.SimpleQueue()
        hooks = probe.Probe(sink=queue.put, tracer=tracer)
        hooks.install()
        start = time.perf_counter()
        engine = SweepEngine(jobs=workload.jobs, cache=False)
        points = engine.run(specs)
        wall_s = time.perf_counter() - start
        records = []
        while not queue.empty():
            records.append(queue.get())
        errors = [point.error for point in points if point.error]
        if errors:
            raise RuntimeError("sweep point failed:\n" + errors[0])
        order = {spec.content_hash(): i for i, spec in enumerate(specs)}
        if sorted(order.get(r["spec_hash"], -1) for r in records) != list(range(len(specs))):
            raise RuntimeError(
                f"{len(records)} point records for {len(specs)} specs: the "
                "pool workers did not inherit the probe (not a fork start?)"
            )
        records.sort(key=lambda r: order[r["spec_hash"]])
        sweep = {
            "jobs": workload.jobs,
            "cache_hits": engine.stats.cache_hits,
            "point_wall_s": sum(point.wall_s for point in points),
        }
    else:
        hooks = probe.Probe(tracer=tracer)
        hooks.install()
        start = time.perf_counter()
        run_experiment(specs[0])
        wall_s = time.perf_counter() - start
        records = [probe.point_record(*entry) for entry in hooks.deferred]
        sweep = {"jobs": 1, "cache_hits": 0,
                 "point_wall_s": records[0]["wall_s"]}

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kb = self_kb + (workload.jobs * worker_kb if workload.sweep else 0)
    if len(records) == 1:
        run_digest = records[0]["digest"]
    else:
        joined = "\n".join(record["digest"] for record in records)
        run_digest = hashlib.sha256(joined.encode("utf-8")).hexdigest()
    return {
        "workload": name,
        "seed": seed,
        "kernel": sorted({record["kernel"] for record in records}),
        "wall_s": wall_s,
        "first_cycle_at": min(record["first_cycle_at"] for record in records),
        "peak_rss_mb": peak_kb / 1024.0,
        "digest": run_digest,
        "points": [
            {key: record[key] for key in (
                "digest", "completed", "violations", "order_violations")}
            for record in records
        ],
        "cycles": sum(record["cycles"] for record in records),
        "delivered": sum(record["delivered"] for record in records),
        "latency_p50": statistics.median([record["latency_p50"] for record in records]),
        "latency_p99": statistics.median([record["latency_p99"] for record in records]),
        "assembly_s": sum(record["assembly_s"] for record in records),
        "counts": _sum_counts(records, "counts"),
        "times": _sum_counts(records, "times"),
        "sweep": sweep,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--kernel", default=None)
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, trace=args.trace,
                     tiny=args.tiny, kernel=args.kernel)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
