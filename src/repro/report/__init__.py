"""Reporting subsystem: the unified results schema, figure regeneration
(`repro report`) judged by the paper's claim table (:mod:`claims`), and
the append-only perf-history archive.

Layering: :mod:`~repro.report.schema` is pure stdlib and is imported by
the bench conftest, the sweep engine, and the CLI; the generator side
(:mod:`figures` / :mod:`plotting` / :mod:`history` / :mod:`generate`)
sits on top and is only pulled in by ``repro report`` and the tests.
"""

from .figures import FIGURES, FigureData, PaperRef, Series
from .generate import ReportResult, generate_report
from .history import (append_snapshot, git_sha, load_history,
                      snapshot_from_summary, trajectory_figures)
from .schema import (RUN_STATS_FIELDS, SCHEMA_VERSION, BenchRecord,
                     BenchSummary, CampaignRecord, ChaosArtifact,
                     EngineStats, HistorySnapshot, RunStats, SchemaError,
                     SweepPointRecord, SweepRecord, load_record,
                     load_results_tree, write_record_atomic)

__all__ = [
    "SCHEMA_VERSION", "RUN_STATS_FIELDS", "SchemaError",
    "RunStats", "EngineStats", "BenchRecord", "BenchSummary",
    "SweepPointRecord", "SweepRecord",
    "CampaignRecord", "ChaosArtifact",
    "HistorySnapshot", "load_record", "load_results_tree",
    "write_record_atomic",
    "FIGURES", "FigureData", "PaperRef", "Series",
    "generate_report", "ReportResult",
    "append_snapshot", "git_sha", "load_history", "snapshot_from_summary",
    "trajectory_figures",
]
