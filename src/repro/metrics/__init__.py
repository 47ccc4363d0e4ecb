"""Measurement: delivery/latency accounting, per-packet traces, reports."""

from .collector import MetricsCollector, PacketTrace
from .histogram import LatencyHistogram, LatencyStats
from .report import (
    DegradationReport,
    LinkUtilization,
    PhaseStats,
    RecoveryStats,
    degradation_report,
    format_degradation,
    link_utilization_report,
    results_to_csv,
    utilization_summary,
)

__all__ = [
    "DegradationReport",
    "LatencyHistogram",
    "LatencyStats",
    "LinkUtilization",
    "MetricsCollector",
    "PacketTrace",
    "PhaseStats",
    "RecoveryStats",
    "degradation_report",
    "format_degradation",
    "link_utilization_report",
    "results_to_csv",
    "utilization_summary",
]
