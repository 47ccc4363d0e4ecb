"""``repro report``: regenerate the paper's figures from archived results.

Reads a ``benchmarks/results/`` tree (per-bench JSON, chaos reproducers,
the history archive), builds every registered figure
(:data:`~repro.report.figures.FIGURES`), renders plots, and writes a
markdown (or html) report::

    REPORT.md            index: fidelity dashboard, run health, trajectory
    fig2.md .. table3.md one page per paper artifact
    figures/*.svg        the plots

The generator is deterministic for a given results tree -- no wall-clock
stamps in the output -- so tests can diff it byte-for-byte.  Progress is
emitted over the obs bus (``report_page`` / ``report_done``) when one is
passed in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .figures import FIGURES, FigureData
from .history import load_history, trajectory_figures
from .plotting import render_figure
from .schema import (BenchSummary, ChaosArtifact, EngineStats, SchemaError,
                     load_record, load_results_tree)


@dataclass
class ReportResult:
    """What :func:`generate_report` produced (for the CLI and tests)."""

    out_dir: Path
    index: Path
    pages: List[str] = field(default_factory=list)
    figures_rendered: int = 0
    figures_missing: List[str] = field(default_factory=list)
    checks_total: int = 0
    checks_ok: int = 0
    history_points: int = 0


def _slug_ok(check_ok: bool, divergence: bool) -> str:
    if check_ok:
        return "✅"
    return "⚠️ known divergence" if divergence else "❌"


def _fidelity_table(fig: FigureData) -> List[str]:
    lines = ["| claim | measured | paper | Δ | status |",
             "|---|---:|---:|---:|---|"]
    for check in fig.fidelity:
        lines.append(
            f"| {check.claim} | {check.measured:g}{check.unit} "
            f"| {check.reference:g}{check.unit} "
            f"| {check.delta:+g} | {_slug_ok(check.ok, check.divergence)} |"
        )
    return lines


def _md_table(rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(rows[0]) + " |",
             "|" + "---|" * len(rows[0])]
    for row in rows[1:]:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _figure_page(fig: FigureData, image: Optional[Path],
                 results_dir: Path) -> str:
    lines = [f"# {fig.title}", ""]
    if fig.missing:
        lines += [f"*Figure unavailable: {fig.missing}.*", ""]
        text = results_dir / f"{fig.source_bench}.txt"
        if text.is_file():
            lines += ["Archived bench text output:", "", "```"]
            lines += text.read_text().splitlines()[:80]
            lines += ["```", ""]
        return "\n".join(lines) + "\n"
    if image is not None:
        lines += [f"![{fig.name}](figures/{image.name})", ""]
    if fig.caption:
        lines += [fig.caption, ""]
    for ref in fig.paper_refs:
        marker = f" (overlay at {ref.value:g})" if ref.value is not None else ""
        lines.append(f"- **paper reference:** {ref.label}{marker}")
    if fig.paper_refs:
        lines.append("")
    if fig.fidelity:
        lines += ["## Fidelity vs the paper", ""]
        lines += _fidelity_table(fig)
        lines.append("")
    if fig.table:
        lines += ["## Data", ""]
        lines += _md_table(fig.table)
        lines.append("")
    lines.append(f"*Source: `benchmarks/results/{fig.source_bench}.json`.*")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- run health

def _load_chaos_artifacts(results_dir: Path) -> List[ChaosArtifact]:
    chaos_dir = results_dir / "chaos"
    if not chaos_dir.is_dir():
        return []
    artifacts = []
    for path in sorted(chaos_dir.glob("*.json")):
        try:
            record = load_record(path)
        except (SchemaError, ValueError, OSError):
            continue
        if isinstance(record, ChaosArtifact):
            artifacts.append(record)
    return artifacts


def _run_health(summary: BenchSummary,
                artifacts: List[ChaosArtifact]) -> List[str]:
    lines = ["## Run health", ""]
    total = EngineStats()
    engine_rows = [["bench", "wall s", "points", "cache hits", "executed",
                    "errors", "timeouts"]]
    for name in sorted(summary.benches):
        bench = summary.benches[name]
        eng = bench.engine
        if eng is None:
            continue
        total.points += eng.points
        total.cache_hits += eng.cache_hits
        total.executed += eng.executed
        total.errors += eng.errors
        total.timeouts += eng.timeouts
        total.wall_s += bench.wall_seconds
        engine_rows.append([
            name.replace("test_", ""), f"{bench.wall_seconds:.1f}",
            str(eng.points), str(eng.cache_hits), str(eng.executed),
            str(eng.errors), str(eng.timeouts),
        ])
    if len(engine_rows) > 1:
        hit_rate = (100.0 * total.cache_hits / total.points
                    if total.points else 0.0)
        lines += [
            f"Sweep-engine totals across {len(engine_rows) - 1} benches: "
            f"**{total.points} points**, {total.cache_hits} cache hits "
            f"({hit_rate:.0f}%), {total.executed} executed, "
            f"{total.errors} errors, {total.timeouts} timeouts.",
            "",
        ]
        lines += _md_table(engine_rows)
        lines.append("")
    else:
        lines += ["No sweep-engine statistics in this tree (benches "
                  "pre-date engine recording, or none ran sweeps).", ""]
    if summary.campaigns:
        rows = [["campaign", "points", "done", "resumed",
                 "retries", "worker deaths", "poisoned", "state"]]
        for cid in sorted(summary.campaigns):
            campaign = summary.campaigns[cid]
            counts = campaign.state_counts()
            stats = campaign.stats
            rows.append([
                cid, str(len(campaign.points)),
                str(counts.get("done", 0)),
                str(stats.get("resumed", 0)),
                str(stats.get("retries", 0)),
                str(stats.get("worker_deaths", 0)),
                str(counts.get("poisoned", 0)),
                "complete" if campaign.complete else "interrupted",
            ])
        lines += [
            f"**Campaigns on disk: {len(summary.campaigns)}** -- "
            "resumable run manifests from `repro sweep --manifest-dir` / "
            "`repro chaos`; an `interrupted` campaign finishes when the "
            "command that started it is run again.",
            "",
        ]
        lines += _md_table(rows)
        lines.append("")
    if artifacts:
        by_class: Dict[str, int] = {}
        for artifact in artifacts:
            by_class[artifact.failure_class] = (
                by_class.get(artifact.failure_class, 0) + 1
            )
        rollup = ", ".join(f"{k}: {by_class[k]}" for k in sorted(by_class))
        lines += [
            f"**Chaos reproducers on disk: {len(artifacts)}** ({rollup}) -- "
            "each is a shrunk failing fault plan; replay with "
            "`repro chaos --replay <file>`.",
            "",
        ]
        rows = [["failure", "trial", "events (orig→shrunk)", "probes"]]
        for artifact in artifacts:
            rows.append([
                artifact.failure, str(artifact.trial),
                f"{artifact.original_events}→{artifact.shrunk_events}",
                str(artifact.shrink_probes),
            ])
        lines += _md_table(rows)
        lines.append("")
    else:
        lines += ["Chaos: no reproducer artifacts on disk "
                  "(`benchmarks/results/chaos/` is clean).", ""]
    return lines


# -------------------------------------------------------------------- index

def _index(summary: BenchSummary, figures: List[FigureData],
           trajectories: List[FigureData], history_points: int,
           artifacts: List[ChaosArtifact], fmt: str) -> str:
    ext = "html" if fmt == "html" else "md"
    lines = [
        "# NIFDY reproduction report",
        "",
        f"Regenerated from `benchmarks/results/` "
        f"({summary.bench_count} archived benches, "
        f"{history_points} history snapshot"
        + ("s" if history_points != 1 else "") + ").",
        "",
        "## Fidelity dashboard",
        "",
        "| page | status | fidelity checks | worst Δ |",
        "|---|---|---|---|",
    ]
    for fig in figures:
        link = f"[{fig.title}]({fig.name}.{ext})"
        if fig.missing:
            lines.append(f"| {link} | ⬜ no data | – | – |")
            continue
        ok = sum(1 for c in fig.fidelity if c.ok)
        hard_fails = [c for c in fig.fidelity if not c.ok and not c.divergence]
        soft_fails = [c for c in fig.fidelity if not c.ok and c.divergence]
        if hard_fails:
            status = "❌ check failed"
        elif soft_fails:
            status = "⚠️ known divergence"
        else:
            status = "✅"
        worst = max(fig.fidelity, key=lambda c: abs(c.delta), default=None)
        worst_txt = (f"{worst.delta:+g}{worst.unit}" if worst else "–")
        lines.append(
            f"| {link} | {status} | {ok}/{len(fig.fidelity)} | {worst_txt} |"
        )
    lines.append("")

    lines += ["## Perf trajectory", ""]
    if trajectories:
        for fig in trajectories:
            lines += [f"![{fig.name}](figures/{fig.name}.svg)", ""]
            if fig.caption:
                lines += [fig.caption, ""]
    else:
        lines += [
            "Fewer than 2 history snapshots under "
            "`benchmarks/results/history/` -- run the benches twice "
            "(`PYTHONPATH=src python -m pytest benchmarks -q`) to start the "
            "trajectory.",
            "",
        ]

    lines += _run_health(summary, artifacts)
    lines += [
        "---",
        "",
        "Paper: *NIFDY: A Low Overhead, High Throughput Network Interface* "
        "(ISCA '95).  Reference values and documented divergences: "
        "EXPERIMENTS.md.",
    ]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------- optional html out

_MD_IMG = re.compile(r"!\[([^\]]*)\]\(([^)]+)\)")
_MD_LINK = re.compile(r"\[([^\]]+)\]\(([^)]+)\)")
_MD_BOLD = re.compile(r"\*\*([^*]+)\*\*")
_MD_CODE = re.compile(r"`([^`]+)`")


def _md_to_html(md: str, title: str) -> str:
    """Small, dependency-free markdown-to-html for the report's own subset
    (headings, tables, images, links, bold, inline code, fenced code)."""
    body: List[str] = []
    in_code = False
    in_table = False

    def inline(s: str) -> str:
        s = (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))
        s = _MD_IMG.sub(r'<img alt="\1" src="\2" style="max-width:100%">', s)
        s = _MD_LINK.sub(r'<a href="\2">\1</a>', s)
        s = _MD_BOLD.sub(r"<b>\1</b>", s)
        s = _MD_CODE.sub(r"<code>\1</code>", s)
        return s

    for line in md.splitlines():
        if line.startswith("```"):
            body.append("<pre>" if not in_code else "</pre>")
            in_code = not in_code
            continue
        if in_code:
            body.append(line.replace("&", "&amp;").replace("<", "&lt;"))
            continue
        if line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if all(set(c) <= {"-", ":", " "} and c for c in cells):
                continue  # separator row
            if not in_table:
                body.append("<table border='1' cellpadding='4' "
                            "style='border-collapse:collapse'>")
                in_table = True
                body.append("<tr>" + "".join(f"<th>{inline(c)}</th>"
                                             for c in cells) + "</tr>")
            else:
                body.append("<tr>" + "".join(f"<td>{inline(c)}</td>"
                                             for c in cells) + "</tr>")
            continue
        if in_table:
            body.append("</table>")
            in_table = False
        if line.startswith("#"):
            level = len(line) - len(line.lstrip("#"))
            body.append(f"<h{level}>{inline(line[level:].strip())}</h{level}>")
        elif line.strip() == "---":
            body.append("<hr>")
        elif line.startswith("- "):
            body.append(f"<li>{inline(line[2:])}</li>")
        elif line.strip():
            body.append(f"<p>{inline(line)}</p>")
    if in_table:
        body.append("</table>")
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{title}</title>"
        "<style>body{font-family:Helvetica,Arial,sans-serif;"
        "max-width:980px;margin:2em auto;padding:0 1em;color:#222}</style>"
        "</head><body>\n" + "\n".join(body) + "\n</body></html>\n"
    )


def _rewrite_links(md: str, ext: str) -> str:
    """Point cross-page links at the right extension for the output format."""
    return re.sub(r"\]\((\w+)\.(?:md|html)\)", rf"](\1.{ext})", md)


# ---------------------------------------------------------------- generator

def generate_report(
    results_dir: Union[str, Path],
    out_dir: Union[str, Path],
    fmt: str = "md",
    bus=None,
) -> ReportResult:
    """Build the whole report; returns what was written."""
    if fmt not in ("md", "html"):
        raise ValueError(f"unknown report format {fmt!r} (want md or html)")
    results_dir = Path(results_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "html" if fmt == "html" else "md"

    summary = load_results_tree(results_dir)
    history = load_history(results_dir)
    trajectories = trajectory_figures(history)
    artifacts = _load_chaos_artifacts(results_dir)
    result = ReportResult(out_dir=out_dir, index=out_dir / f"REPORT.{ext}",
                          history_points=len(history))

    def emit(page: str) -> None:
        if bus is not None:
            bus.emit(len(result.pages), "report_page", -1, info=page)

    figures = []
    for spec in FIGURES:
        fig = spec.build(spec, summary.benches.get(spec.bench))
        figures.append(fig)
        image = None
        if fig.missing:
            result.figures_missing.append(fig.name)
        else:
            image = render_figure(fig, out_dir / "figures")
            result.figures_rendered += 1
        page_md = _figure_page(fig, image, results_dir)
        page_md = _rewrite_links(page_md, ext)
        page_path = out_dir / f"{fig.name}.{ext}"
        page_path.write_text(
            _md_to_html(page_md, fig.title) if fmt == "html" else page_md
        )
        result.pages.append(page_path.name)
        result.checks_total += len(fig.fidelity)
        result.checks_ok += sum(1 for c in fig.fidelity if c.ok)
        emit(page_path.name)

    for fig in trajectories:
        render_figure(fig, out_dir / "figures")
        result.figures_rendered += 1

    index_md = _rewrite_links(
        _index(summary, figures, trajectories, len(history), artifacts, fmt),
        ext,
    )
    result.index.write_text(
        _md_to_html(index_md, "NIFDY reproduction report")
        if fmt == "html" else index_md
    )
    result.pages.insert(0, result.index.name)
    if bus is not None:
        bus.emit(len(result.pages), "report_done", -1,
                 info=str(result.index))
    return result
