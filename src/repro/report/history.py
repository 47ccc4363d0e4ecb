"""Append-only perf-history archive under ``benchmarks/results/history/``.

Every bench session appends one timestamped, git-SHA-stamped
:class:`~repro.report.schema.HistorySnapshot` instead of overwriting its
summary, so consecutive runs (and consecutive commits) accumulate into a
bench-wall-clock trajectory the report can chart.

Layout::

    benchmarks/results/history/
        20260808T141502Z-1a2b3c4.json    # one snapshot per bench session
        20260808T152210Z-5d6e7f8.json

File names sort chronologically; the loader also orders by the embedded
timestamp so hand-copied snapshots still land in the right place.
"""

from __future__ import annotations

import subprocess
import time
from pathlib import Path
from typing import List, Optional, Sequence, Union

from .figures import FigureData, Series
from .schema import (BenchSummary, HistorySnapshot, SchemaError, load_record,
                     write_record_atomic)

HISTORY_DIRNAME = "history"


def git_sha(repo_dir: Optional[Union[str, Path]] = None) -> str:
    """The current short commit SHA, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(repo_dir) if repo_dir else None,
            capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def snapshot_from_summary(
    summary: BenchSummary,
    session_benches: Sequence[str] = (),
    sha: Optional[str] = None,
    timestamp: Optional[str] = None,
) -> HistorySnapshot:
    """Distil the merged summary into one trajectory point."""
    cycles = max(
        (b.bench_cycles for b in summary.benches.values()), default=0
    )
    farm = {}
    if summary.campaigns:
        farm = {"campaigns": len(summary.campaigns)}
        for key in ("points", "retries", "worker_deaths", "poisoned",
                    "resumed"):
            farm[key] = sum(
                int(c.stats.get(key, 0) or 0)
                for c in summary.campaigns.values()
            )
    return HistorySnapshot(
        timestamp=timestamp or time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        git_sha=sha if sha is not None else git_sha(),
        bench_count=summary.bench_count,
        session_benches=sorted(session_benches),
        bench_wall={
            name: round(b.wall_seconds, 3)
            for name, b in sorted(summary.benches.items())
        },
        bench_cycles=cycles,
        farm=farm,
    )


def append_snapshot(results_dir: Union[str, Path],
                    snapshot: HistorySnapshot) -> Path:
    """Write one snapshot into the history dir; never overwrites."""
    history_dir = Path(results_dir) / HISTORY_DIRNAME
    stem = f"{snapshot.timestamp}-{snapshot.git_sha}"
    path = history_dir / f"{stem}.json"
    n = 1
    while path.exists():  # same second + same SHA: suffix, don't clobber
        path = history_dir / f"{stem}-{n}.json"
        n += 1
    write_record_atomic(path, snapshot)
    return path


def load_history(results_dir: Union[str, Path]) -> List[HistorySnapshot]:
    """All snapshots, oldest first (by embedded timestamp, then filename)."""
    history_dir = Path(results_dir) / HISTORY_DIRNAME
    if not history_dir.is_dir():
        return []
    loaded = []
    for path in sorted(history_dir.glob("*.json")):
        try:
            record = load_record(path)
        except (SchemaError, ValueError, OSError):
            continue
        if isinstance(record, HistorySnapshot):
            loaded.append((record.timestamp, path.name, record))
    loaded.sort(key=lambda item: (item[0], item[1]))
    return [record for _, _, record in loaded]


def _labels(snapshots: Sequence[HistorySnapshot]) -> List[str]:
    """Short x-axis labels: the SHA, deduplicated for re-runs of one commit."""
    labels, seen = [], {}
    for snap in snapshots:
        seen[snap.git_sha] = seen.get(snap.git_sha, 0) + 1
        n = seen[snap.git_sha]
        labels.append(snap.git_sha if n == 1 else f"{snap.git_sha}·{n}")
    return labels


def trajectory_figures(snapshots: Sequence[HistorySnapshot],
                       top_benches: int = 5) -> List[FigureData]:
    """The bench-wall-clock trajectory chart.

    Needs >= 2 snapshots to make a trajectory; returns [] otherwise.
    """
    if len(snapshots) < 2:
        return []
    xs = [float(i) for i in range(len(snapshots))]
    labels = _labels(snapshots)
    # Wall clock: the total plus the currently slowest benches.
    last_wall = snapshots[-1].bench_wall
    slowest = sorted(last_wall, key=lambda b: -last_wall[b])[:top_benches]
    fig = FigureData(
        name="trajectory_wall",
        title="Perf trajectory · bench wall clock across bench runs",
        kind="line", ylabel="seconds",
        xlabel="bench run (git SHA)", categories=labels,
        source_bench="history/",
        caption=(
            "Total archived bench wall clock plus the "
            f"{len(slowest)} slowest individual benches.  Points reflect "
            "each snapshot's merged summary, so a partial session carries "
            "its stale siblings' last-known timings forward."
        ),
    )
    fig.series.append(Series(
        "total (all benches)", xs=xs,
        ys=[round(s.wall_total, 3) for s in snapshots],
    ))
    for bench in slowest:
        fig.series.append(Series(
            bench.replace("test_", ""), xs=xs,
            ys=[round(s.bench_wall.get(bench, 0.0), 3) for s in snapshots],
        ))
    return [fig]
