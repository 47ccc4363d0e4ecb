"""Result reporting: latency histograms, link utilisation, CSV export, and
degradation analysis for fault-injected runs.

Tooling a downstream user needs to look *inside* a run: where the cycles
went (latency percentiles), where the bandwidth went (per-link utilisation,
which visualises hot spots and bisection pressure), how the run degraded
under injected faults (delivered fraction, retransmission overhead,
time-to-recover after each repair), and machine-readable dumps of
experiment results.
"""

from __future__ import annotations

import bisect
import csv
import io
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..networks import Network
from ..result_fields import RUN_STATS_FIELDS
from .histogram import LatencyHistogram  # noqa: F401  (canonical home moved)


@dataclass
class LinkUtilization:
    name: str
    utilization: float
    flits: int
    packets_dropped: int


def link_utilization_report(
    network: Network, elapsed_cycles: int, top: Optional[int] = None,
    include_nic_links: bool = False,
) -> List[LinkUtilization]:
    """Per-link utilisation, busiest first (hot links = congestion map)."""
    rows = [
        LinkUtilization(
            name=link.name,
            # Link.utilization is deliberately unclamped (a ratio above 1.0
            # is an accounting bug it must not hide); for display a tidy
            # 0..1 fraction is what readers expect.
            utilization=min(1.0, link.utilization(elapsed_cycles)),
            flits=link.flits_carried,
            packets_dropped=link.packets_dropped,
        )
        for link in network.links
        if include_nic_links or id(link) not in network._nic_link_ids
    ]
    rows.sort(key=lambda row: row.utilization, reverse=True)
    return rows[:top] if top is not None else rows


def utilization_summary(network: Network, elapsed_cycles: int) -> Dict[str, float]:
    """Aggregate fabric utilisation statistics."""
    rows = link_utilization_report(network, elapsed_cycles)
    if not rows:
        return {"mean": 0.0, "max": 0.0, "busy_fraction": 0.0}
    values = [row.utilization for row in rows]
    return {
        "mean": sum(values) / len(values),
        "max": max(values),
        "busy_fraction": sum(v > 0.5 for v in values) / len(values),
    }


@dataclass
class PhaseStats:
    """Delivered throughput within one fault-regime phase of a run."""

    start: int
    end: int
    delivered: int

    @property
    def throughput(self) -> float:
        """Packets delivered per 1000 cycles within this phase."""
        span = self.end - self.start
        return 1000.0 * self.delivered / span if span > 0 else 0.0


@dataclass
class RecoveryStats:
    """How long deliveries took to resume after one repair event."""

    description: str
    repair_cycle: int
    #: Cycles from the repair until the first post-repair delivery, or None
    #: if nothing was delivered afterwards (still partitioned, or done).
    time_to_recover: Optional[int]


@dataclass
class DegradationReport:
    """The fault-facing view of a run: what was delivered, what it cost,
    and how fast the system recovered from each repair."""

    sent: int
    delivered: int
    abandoned: int
    retransmissions: int
    duplicates_dropped: int
    packets_dropped_by_links: int
    phases: List[PhaseStats] = field(default_factory=list)
    recoveries: List[RecoveryStats] = field(default_factory=list)
    timeline: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def delivered_fraction(self) -> float:
        return self.delivered / self.sent if self.sent else 1.0

    @property
    def retransmission_overhead(self) -> float:
        """Extra injections per delivered packet (0 = loss-free)."""
        return self.retransmissions / self.delivered if self.delivered else 0.0


def degradation_report(
    *,
    metrics,
    nics: Sequence,
    network: Network,
    cycles: int,
    boundaries: Sequence[int] = (),
    repairs: Sequence[Tuple[int, str]] = (),
    timeline: Sequence[Tuple[int, str]] = (),
) -> DegradationReport:
    """Assemble a :class:`DegradationReport` from a finished run.

    ``boundaries`` are the fault plan's phase cut points;  ``repairs`` are
    ``(cycle, description)`` pairs for each repair event.  Phase and
    recovery stats need the collector's ``delivery_cycles`` record and are
    omitted (empty) when it was not kept.
    """
    report = DegradationReport(
        sent=metrics.sent,
        delivered=metrics.delivered,
        abandoned=metrics.abandoned,
        retransmissions=sum(nic.retransmissions for nic in nics),
        duplicates_dropped=sum(nic.duplicates_dropped for nic in nics),
        packets_dropped_by_links=sum(
            link.packets_dropped for link in network.links
        ),
        timeline=list(timeline),
    )
    deliveries = metrics.delivery_cycles
    if deliveries is None:
        return report
    ordered = sorted(deliveries)
    cuts = [c for c in sorted(set(boundaries)) if 0 < c < cycles]
    edges = [0] + cuts + [cycles]
    for start, end in zip(edges, edges[1:]):
        lo = bisect.bisect_left(ordered, start)
        hi = bisect.bisect_left(ordered, end)
        report.phases.append(PhaseStats(start=start, end=end, delivered=hi - lo))
    for repair_cycle, description in repairs:
        idx = bisect.bisect_left(ordered, repair_cycle)
        recover = ordered[idx] - repair_cycle if idx < len(ordered) else None
        report.recoveries.append(
            RecoveryStats(
                description=description,
                repair_cycle=repair_cycle,
                time_to_recover=recover,
            )
        )
    return report


def format_degradation(report: DegradationReport) -> str:
    """Render a degradation report as the CLI's text section."""
    lines = ["degradation:"]
    lines.append(
        f"  delivered fraction  : {report.delivered_fraction:.3f} "
        f"({report.delivered:,}/{report.sent:,}"
        + (f", {report.abandoned} abandoned)" if report.abandoned else ")")
    )
    lines.append(
        f"  retransmit overhead : {report.retransmission_overhead:.3f} "
        f"extra injections/delivery ({report.retransmissions:,} retransmissions)"
    )
    lines.append(
        f"  losses              : links dropped "
        f"{report.packets_dropped_by_links:,}, receivers discarded "
        f"{report.duplicates_dropped:,} duplicates"
    )
    if report.phases:
        lines.append("  per-phase delivered throughput:")
        for phase in report.phases:
            lines.append(
                f"    [{phase.start:>9,} - {phase.end:>9,}) "
                f"{phase.delivered:>7,} pkts  "
                f"{phase.throughput:8.2f} pkts/kcycle"
            )
    for rec in report.recoveries:
        took = (
            f"recovered in {rec.time_to_recover:,} cycles"
            if rec.time_to_recover is not None
            else "no deliveries afterwards"
        )
        lines.append(f"  after {rec.description}: {took}")
    return "\n".join(lines)


def results_to_csv(results: Sequence, fieldnames: Optional[Sequence[str]] = None) -> str:
    """Render ExperimentResult-like objects as CSV text.

    The default column set is the results schema's scalar fields
    (``RUN_STATS_FIELDS`` minus the non-scalar tail), so CSV exports,
    ``--json`` output, and the sweep cache all agree on names and order.
    """
    if fieldnames is None:
        fieldnames = [f for f in RUN_STATS_FIELDS
                      if f not in ("stall_report", "violations")]
    fieldnames = list(fieldnames)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for result in results:
        writer.writerow({name: getattr(result, name) for name in fieldnames})
    return buffer.getvalue()
