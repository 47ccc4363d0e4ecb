"""Exporters: Chrome-trace/Perfetto JSON and structured metrics JSON.

``chrome_trace`` renders packet lifecycles (pool wait, network flight,
receive) and fault windows in the Trace Event Format that ``chrome://
tracing`` and https://ui.perfetto.dev consume: one simulated cycle maps to
one microsecond of trace time, each source node is a "process", and each
destination is a "thread" within it, so sorting by pid groups a sender's
traffic and the timeline shows exactly when each packet was where.

``metrics_json`` is the machine-readable counterpart of the CLI's text
report: run identity, collector totals (which reconcile as
``sent == delivered + abandoned + in_flight``), latency percentiles,
per-NIC protocol counters, event-bus counts, the sampler's time series,
and the kernel self-profile.  Everything is duck-typed against
:class:`~repro.experiments.runner.ExperimentResult` so this module imports
nothing from the protocol stack (keeping ``repro.obs`` import-cycle-free).
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

#: pid used for the synthetic "faults" track in Chrome traces.
FAULT_TRACK_PID = 999_999


def write_json(path: str, obj: Dict) -> None:
    """Write ``obj`` as pretty-printed JSON (parents are not created)."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=False, default=str)
        fh.write("\n")


def chrome_trace(
    tracer,
    fault_windows: Sequence[Tuple[int, Optional[int], str]] = (),
    fault_timeline: Sequence[Tuple[int, str]] = (),
    run_label: str = "repro",
) -> Dict:
    """Build a Trace Event Format dict from a :class:`PacketTracer`.

    ``fault_windows`` are ``(start, end_or_None, label)`` spans;
    ``fault_timeline`` are the injector's ``(cycle, text)`` instants.
    """
    events: List[Dict] = []

    def phase(pid, tid, name, start, end, args):
        events.append({
            "name": name, "cat": "packet", "ph": "X",
            "ts": start, "dur": max(0, end - start),
            "pid": pid, "tid": tid, "args": args,
        })

    def instant(pid, tid, name, ts, args=None):
        events.append({
            "name": name, "cat": "fault" if pid == FAULT_TRACK_PID else "packet",
            "ph": "i", "ts": ts, "s": "p",
            "pid": pid, "tid": tid, "args": args or {},
        })

    for trace in tracer.traces.values():
        args = {"uid": trace.uid, "src": trace.src, "dst": trace.dst}
        pid, tid = trace.src, trace.dst
        if trace.created >= 0 and trace.injected >= 0:
            phase(pid, tid, "pool", trace.created, trace.injected, args)
        if trace.injected >= 0:
            if trace.ejected >= 0:
                phase(pid, tid, "network", trace.injected, trace.ejected, args)
                if trace.accepted >= 0:
                    phase(pid, tid, "rx", trace.ejected, trace.accepted, args)
            elif trace.accepted >= 0:
                # No ejection timestamp (e.g. a hand-attached tracer that
                # missed it): fall back to one network-flight span.
                phase(pid, tid, "network", trace.injected, trace.accepted, args)
        if trace.abandoned >= 0:
            instant(pid, tid, "abandon", trace.abandoned, args)

    for start, end, label in fault_windows:
        if end is not None and end > start:
            events.append({
                "name": label, "cat": "fault", "ph": "X",
                "ts": start, "dur": end - start,
                "pid": FAULT_TRACK_PID, "tid": 0, "args": {},
            })
        else:
            instant(FAULT_TRACK_PID, 0, label, start)
    for cycle, text in fault_timeline:
        instant(FAULT_TRACK_PID, 0, text, cycle)

    # Name the tracks so the viewer reads "node 3" instead of "pid 3".
    pids = sorted({e["pid"] for e in events})
    meta = []
    for pid in pids:
        name = "faults" if pid == FAULT_TRACK_PID else f"node {pid}"
        meta.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {
            "run": run_label,
            "clock": "1 trace us = 1 simulated cycle",
            "dropped_packet_records": getattr(tracer, "dropped_records", 0),
        },
    }


def _histogram_dict(hist) -> Dict:
    """JSON view of a LatencyHistogram (duck-typed)."""
    return {
        "count": hist.count,
        "mean": hist.mean,
        "p50": hist.percentile(0.50),
        "p90": hist.percentile(0.90),
        "p99": hist.percentile(0.99),
        "max": hist.maximum,
        "buckets": [
            {"range": label, "count": count} for label, count in hist.rows()
        ],
    }


def metrics_json(result, run_args: Optional[Dict] = None) -> Dict:
    """Structured metrics for one finished experiment.

    ``result`` is an :class:`ExperimentResult`; ``run_args`` is an optional
    dict of the invocation parameters (the CLI passes its argv view so a
    JSON artifact is self-describing).
    """
    metrics = result.metrics
    doc: Dict = {
        "run": {
            "network": result.network,
            "nic_mode": result.nic_mode,
            "num_nodes": result.num_nodes,
            "cycles": result.cycles,
            "completed": result.completed,
            "args": run_args or {},
        },
        "totals": {
            "sent": metrics.sent,
            "injected": metrics.injected,
            "delivered": metrics.delivered,
            "abandoned": metrics.abandoned,
            "in_flight": metrics.in_flight,
            "order_violations": metrics.order_violations,
            "throughput_per_kcycle": result.throughput,
        },
        "latency": {
            "network": _histogram_dict(metrics.network_latency),
            "total": _histogram_dict(metrics.total_latency),
            "barrier": _histogram_dict(metrics.barrier_latency),
        },
        "nics": _nic_counters(result.nics),
    }
    engines = [
        nic.collective for nic in result.nics
        if nic.collective is not None
    ]
    if engines:
        doc["collectives"] = _collective_counters(engines)
    obs = getattr(result, "obs", None)
    if obs is not None:
        if obs.bus is not None:
            doc["events"] = dict(sorted(obs.bus.counts.items()))
        if obs.sampler is not None:
            doc["samples"] = obs.sampler.to_dict()
        if obs.kernel_profile is not None:
            doc["self_profile"] = obs.kernel_profile.to_dict()
    if result.stall_report:
        doc["stall_report"] = result.stall_report
    if result.fault_injector is not None:
        doc["fault_timeline"] = [
            {"cycle": cycle, "event": text}
            for cycle, text in result.fault_injector.timeline
        ]
    return doc


def _nic_counters(nics: Sequence) -> Dict:
    """Aggregate per-NIC protocol counters (every NIC declares them, zero
    where the mechanism is absent)."""
    names = (
        "packets_injected", "packets_ejected", "packets_accepted",
        "acks_sent", "acks_received", "bulk_grants", "bulk_rejects",
        "scalar_sent", "bulk_sent", "retransmissions",
        "duplicates_dropped", "packets_abandoned", "rtt_samples",
    )
    return {name: sum(map(attrgetter(name), nics)) for name in names}


def _collective_counters(engines: Sequence) -> Dict:
    """Aggregate the NIC-offloaded collective engines' protocol counters."""
    names = (
        "coll_contribs_sent", "coll_releases_sent", "coll_retransmits",
        "coll_duplicates", "coll_completed",
    )
    return {
        name: sum(getattr(eng, name, 0) for eng in engines) for name in names
    }
