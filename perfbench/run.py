"""The simulator benchmark: four workloads, cold runs, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload heavy_fattree --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``child.py``), so set-up time
includes import and no state carries over.  Repetitions repeat until
``--seconds`` have passed; every metric is the median over them.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

WORKLOAD_NAMES = (
    "heavy_fattree", "cshift_cm5", "lossy_spray_observed", "param_sweep",
)
#: The only workload that attaches the event bus and invariant monitor.
OBSERVED = "lossy_spray_observed"
MIN_REPS = 2
#: Seeds with a pinned digest in ``digests.json``.  The simulation seed is
#: ``--seed`` modulo this, so every seed the benchmark is given is checked
#: against a pin recorded on the ``heap`` kernel.
PINNED_SEEDS = 32
#: Allowed gap between the traced loop time and what the layers' self
#: times plus the kernel's dispatch self time account for.
TRACE_TOLERANCE = 0.03
#: Each child must finish well inside the benchmark's own time limit.
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "flits_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_throughput_per_kcycle": "pkt/kcycle",
    "sim_cycles": "cycles",
}
#: Printed beside the end-to-end metrics but carried in the JSON only by
#: the traced run: tail latency differs across seeds by more than any bound
#: the benchmark may set (see README.md), and the digest pins it per seed.
LATENCY_UNITS = {
    "sim_latency_p50_cycles": "cycles",
    "sim_latency_p99_cycles": "cycles",
}

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.dispatch_self_s": "s",
    "sim.ns_per_event": "ns",
    "links.self_s": "s",
    "links.flits": "count",
    "links.ns_per_flit": "ns",
    "links.utilization": "ratio",
    "links.dropped": "count",
    "routers.self_s": "s",
    "routers.flits_forwarded": "count",
    "networks.self_s": "s",
    "nic.self_s": "s",
    "nic.packets_injected": "count",
    "nic.acks_per_packet": "ratio",
    "nic.bulk_grant_ratio": "ratio",
    "nic.retransmit_ratio": "ratio",
    "nic.duplicate_ratio": "ratio",
    "node.self_s": "s",
    "node.busy_share": "ratio",
    "traffic.self_s": "s",
    "packets.self_s": "s",
    "metrics.self_s": "s",
    "obs.self_s": "s",
    "obs.events_emitted": "count",
    "validate.self_s": "s",
    "validate.violations": "count",
    "experiments.setup_s": "s",
    "experiments.self_s": "s",
    "experiments.dispatch_overhead_s": "s",
    "experiments.worker_busy_share": "ratio",
    "trace.overhead_ratio": "ratio",
    **LATENCY_UNITS,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(rep: Dict) -> Dict[str, float]:
    return {
        "wall_s": rep["wall_s"],
        "setup_s": rep["setup_s"],
        "flits_per_s": rep["counts"]["flits"] / rep["wall_s"],
        "peak_rss_mb": rep["peak_rss_mb"],
        "sim_throughput_per_kcycle": 1000.0 * rep["delivered"] / rep["cycles"],
        "sim_cycles": rep["cycles"],
        **latency(rep),
    }


def latency(rep: Dict) -> Dict[str, float]:
    return {
        "sim_latency_p50_cycles": rep["latency_p50"],
        "sim_latency_p99_cycles": rep["latency_p99"],
    }


def per_layer(rep: Dict) -> Dict[str, float]:
    """Per-layer figures of one traced repetition (``trace.overhead_ratio``
    is added by the caller, which has the untraced median)."""
    c, t, sweep = rep["counts"], rep["times"], rep["sweep"]
    events = c.get("events", 0)
    out = {
        "sim.events": events,
        "sim.dispatch_self_s": t.get("dispatch_self_s", 0.0),
        "sim.ns_per_event": 1e9 * _ratio(t.get("dispatch_self_s", 0.0), events),
        "links.flits": c["flits"],
        "links.ns_per_flit": 1e9 * _ratio(t.get("links", 0.0), c["flits"]),
        "links.utilization": _ratio(c["link_busy"], c["link_capacity"]),
        "links.dropped": c["dropped"],
        "routers.flits_forwarded": c["flits_forwarded"],
        "nic.packets_injected": c["nic.packets_injected"],
        "nic.acks_per_packet": _ratio(c["nic.acks_sent"], c["nic.packets_accepted"]),
        "nic.bulk_grant_ratio": _ratio(
            c["nic.bulk_grants"], c["nic.bulk_grants"] + c["nic.bulk_rejects"]),
        "nic.retransmit_ratio": _ratio(
            c["nic.retransmissions"], c["nic.packets_injected"]),
        "nic.duplicate_ratio": _ratio(
            c["nic.duplicates_dropped"], c["nic.packets_ejected"]),
        "node.busy_share": _ratio(c["proc_busy"], c["proc_capacity"]),
        "obs.events_emitted": c["events_emitted"],
        "validate.violations": sum(p["violations"] for p in rep["points"]),
        "experiments.setup_s": rep["assembly_s"],
        "experiments.dispatch_overhead_s":
            rep["wall_s"] - sweep["point_wall_s"] / sweep["jobs"],
        "experiments.worker_busy_share":
            _ratio(sweep["point_wall_s"], sweep["jobs"] * rep["wall_s"]),
        **latency(rep),
    }
    for layer in ("links", "routers", "networks", "nic", "node", "traffic",
                  "packets", "metrics", "obs", "validate", "experiments"):
        out[f"{layer}.self_s"] = t.get(layer, 0.0)
    return out


def failures(workload: str, rep: Dict, expected: Optional[str]) -> List[str]:
    """Why a repetition's output is wrong (empty when it is right)."""
    reasons = []
    for i, point in enumerate(rep["points"]):
        if not point["completed"]:
            reasons.append(f"point {i} ended completed=False")
        if point["violations"]:
            reasons.append(f"point {i} reported {point['violations']} invariant violation(s)")
        if point["order_violations"]:
            reasons.append(f"point {i} delivered {point['order_violations']} packet(s) out of order")
    if expected is not None and rep["digest"] != expected:
        reasons.append(f"digest {rep['digest'][:16]} != pinned {expected[:16]}")
    if rep["sweep"]["cache_hits"]:
        reasons.append(f"sweep served {rep['sweep']['cache_hits']} point(s) from cache")
    times = rep["times"]
    if "loop_s" in times:
        accounted = times["loop_accounted_s"] + times["dispatch_self_s"]
        gap = _ratio(abs(accounted - times["loop_s"]), times["loop_s"])
        if gap > TRACE_TOLERANCE:
            reasons.append(
                f"layer self times + dispatch account for {accounted:.4f}s of "
                f"{times['loop_s']:.4f}s traced loop time (gap {gap:.1%})"
            )
        observed = workload == OBSERVED
        for layer in ("obs", "validate"):
            busy = times.get(layer, 0.0) > 0.0
            if busy != observed:
                reasons.append(
                    f"{layer}.self_s is {times.get(layer, 0.0):.6f}s on {workload}"
                )
    return reasons


def child(workload: str, seed: int, *, trace: bool = False, tiny: bool = False,
          kernel: Optional[str] = None) -> Tuple[Optional[Dict], str]:
    """Run one repetition in a fresh interpreter; ``(record, error)``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] if trace else []
    cmd += ["--tiny"] if tiny else []
    cmd += ["--kernel", kernel] if kernel else []
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"repetition exceeded {CHILD_TIMEOUT_S}s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return None, f"exit {proc.returncode}: {tail}"
    record = json.loads(lines[-1])
    record["setup_s"] = record["first_cycle_at"] - spawned
    return record, ""


def load_pins() -> Dict:
    return json.loads(DIGESTS.read_text())["workloads"]


class Runs:
    """Repetitions of one workload and the failure ledger."""

    def __init__(self, workload: str, seed: int, expected: Optional[str]):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.reps: List[Dict] = []
        self.attempted = 0
        self.failed = 0
        self.kernels = set()

    def run(self, deadline: float, trace: bool, tiny: bool) -> None:
        """Repeat until the next repetition would end after ``deadline``
        (a ``time.monotonic()`` value), but at least ``MIN_REPS`` times."""
        durations: List[float] = []
        while len(durations) < MIN_REPS or (
            time.monotonic() + statistics.median(durations) <= deadline
        ):
            began = time.monotonic()
            record, error = child(self.workload, self.seed, trace=trace,
                                  tiny=tiny)
            durations.append(time.monotonic() - began)
            if record is None:
                self.attempted += 1
                self.failed += 1
                print(f"  repetition failed: {error}", file=sys.stderr)
                continue
            self.attempted += len(record["points"])
            self.kernels.update(record["kernel"])
            reasons = failures(self.workload, record, self.expected)
            if reasons:
                self.failed += len(record["points"])
                for reason in reasons:
                    print(f"  wrong output: {reason}", file=sys.stderr)
                continue
            self.reps.append(record)

    def medians(self, extract) -> Dict[str, float]:
        if not self.reps:
            return {}
        rows = [extract(rep) for rep in self.reps]
        return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunk workloads, no pinned digests (tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    # The only build step: byte-compile once so no repetition's set-up time
    # includes compiling the sources.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    seed = args.seed % PINNED_SEEDS
    expected = None
    if not args.tiny:
        expected = load_pins().get(args.workload, {}).get(str(seed))
        if expected is None:
            print(f"error: no pinned digest for {args.workload} seed {seed} "
                  f"in {DIGESTS.name}; run pin.py", file=sys.stderr)
            return 2

    started = time.monotonic()
    runs = Runs(args.workload, seed, expected)
    if args.trace:
        untraced = Runs(args.workload, seed, expected)
        untraced.run(started + args.seconds / 3, trace=False, tiny=args.tiny)
        runs.run(started + args.seconds, trace=True, tiny=args.tiny)
        runs.attempted += untraced.attempted
        runs.failed += untraced.failed
        runs.kernels |= untraced.kernels
        values = runs.medians(per_layer)
        base = untraced.medians(end_to_end).get("wall_s")
        traced = runs.medians(lambda rep: {"wall_s": rep["wall_s"]}).get("wall_s")
        if values and base:
            values["trace.overhead_ratio"] = traced / base
        units = PER_LAYER_UNITS
    else:
        runs.run(started + args.seconds, trace=False, tiny=args.tiny)
        values = runs.medians(end_to_end)
        units = END_TO_END_UNITS

    correct = runs.failed == 0 and set(units) <= set(values)
    print(f"workload {args.workload}  seed {args.seed} (simulation seed {seed})  "
          f"scheduler {','.join(sorted(runs.kernels)) or '?'}  "
          f"repetitions {len(runs.reps)}  attempted {runs.attempted}  "
          f"failed {runs.failed}  digest {(expected or '-')[:16]}")
    printed = units if args.trace else {**units, **LATENCY_UNITS}
    for name, unit in printed.items():
        if name in values:
            print(f"  {name:34s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units if name in values
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
