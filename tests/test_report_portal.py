"""Tests for the analysis portal: figure builders, plotting, the history
archive, report generation from a fixture results tree, determinism, and
the ``repro report`` / ``--json`` CLI surfaces."""

import json

import pytest

from repro.obs import EventBus
from repro.report import (
    FIGURES,
    BenchRecord,
    BenchSummary,
    CampaignRecord,
    ChaosArtifact,
    EngineStats,
    HistorySnapshot,
    append_snapshot,
    generate_report,
    load_history,
    load_record,
    snapshot_from_summary,
    trajectory_figures,
    write_record_atomic,
)
from repro.report.plotting import nice_ticks, render_svg


# ------------------------------------------------------------ fixture tree

def _bench(name, data, wall=1.0, engine=None):
    return BenchRecord(bench=name, bench_cycles=20_000, bench_seed=11,
                       wall_seconds=wall, data=data, engine=engine)


def _snapshot(i):
    return HistorySnapshot(
        timestamp=f"2026080{i}T120000Z", git_sha=f"sha{i:04d}",
        bench_count=2, session_benches=["test_fig2_heavy_synthetic"],
        bench_wall={"test_fig2_heavy_synthetic": 30.0 + i,
                    "test_table2_calibration": 11.0},
        bench_cycles=20_000,
    )


@pytest.fixture
def results_tree(tmp_path):
    """A miniature benchmarks/results/ with every artifact class."""
    write_record_atomic(tmp_path / "test_fig2_heavy_synthetic.json", _bench(
        "test_fig2_heavy_synthetic",
        {"delivered": {
            "mesh2d": {"plain": 3000, "buffered": 3100, "nifdy-": 3050},
            "fattree": {"plain": 4000, "buffered": 4800, "nifdy-": 5200},
        }},
        wall=30.0,
        engine=EngineStats(points=24, cache_hits=20, executed=4,
                           hit_rate=0.83, wall_s=4.0),
    ))
    write_record_atomic(tmp_path / "test_table2_calibration.json", _bench(
        "test_table2_calibration",
        {"latency_fits": {"mesh2d": [4.1, 28.0], "fattree": [5.0, 37.0],
                          "cm5": [16.5, 40.0]},
         "software_costs": {"active message send": 9}},
        wall=0.8,
    ))
    # a bench whose archive predates structured recording
    write_record_atomic(tmp_path / "test_fig6_cshift_throughput.json",
                        _bench("test_fig6_cshift_throughput", {}))
    (tmp_path / "test_fig6_cshift_throughput.txt").write_text(
        "Figure 6 text archive\nwords/kcycle table here\n"
    )
    write_record_atomic(
        tmp_path / "chaos" / "chaos-001.json",
        ChaosArtifact(failure="invariant:exactly_once", detail="dup uid 9",
                      trial=4, original_events=3, shrunk_events=1,
                      shrink_probes=17),
    )
    write_record_atomic(
        tmp_path / "campaigns" / "deadbeef0123.json",
        CampaignRecord(
            campaign_id="deadbeef0123", policy={"retries": 2},
            points=[{"state": "done"}, {"state": "poisoned"}],
            stats={"points": 2, "executed": 1, "resumed": 1,
                   "retries": 3, "worker_deaths": 4, "poisoned": 1},
        ),
    )
    for i in range(3):
        append_snapshot(tmp_path, _snapshot(i))
    return tmp_path


class TestFigureBuilders:
    def test_registry_covers_every_paper_artifact(self):
        names = [spec.name for spec in FIGURES]
        assert names == ["fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                         "fig8", "fig9", "table2", "table3", "collectives"]

    def test_missing_record_builds_missing_figure(self):
        for spec in FIGURES:
            fig = spec.build(spec, None)
            assert fig.missing
            assert spec.bench in fig.missing

    def test_fig2_builder_checks_and_overlays(self):
        spec = next(s for s in FIGURES if s.name == "fig2")
        fig = spec.build(spec, _bench(spec.bench, {"delivered": {
            "mesh2d": {"plain": 100, "buffered": 110, "nifdy-": 105},
            "torus2d": {"plain": 100, "buffered": 140, "nifdy-": 160},
        }}))
        assert not fig.missing
        assert [s.label for s in fig.series] == [
            "no NIFDY", "buffers only", "NIFDY"]
        assert fig.paper_refs and fig.fidelity
        assert all(check.ok for check in fig.fidelity)

    def test_table2_overlays_paper_formulas(self):
        spec = next(s for s in FIGURES if s.name == "table2")
        fig = spec.build(spec, _bench(spec.bench, {
            "latency_fits": {"mesh2d": [4.0, 28.0], "fattree": [5.2, 37.0],
                             "cm5": [16.0, 60.0], "butterfly": [0.0, 60.0]},
        }))
        labels = [s.label for s in fig.series]
        assert any("paper: 4d + 14" in lab for lab in labels)
        assert any("paper: 5d + 2" in lab for lab in labels)
        assert all(check.ok for check in fig.fidelity)

    def test_collectives_builder_checks_and_table(self):
        spec = next(s for s in FIGURES if s.name == "collectives")
        fig = spec.build(spec, _bench(spec.bench, {
            "barrier_latency_mean": {"host": 293.1, "nic": 483.4},
            "barrier_latency_p99": {"host": 998, "nic": 1210},
            "barrier_latency_max": {"host": 998, "nic": 1210},
            "cycles": {"host": 19_000, "nic": 19_000},
            "violations": {"host": 0, "nic": 0},
            "collectives": {"coll_completed": 8, "coll_contribs_sent": 120,
                            "coll_releases_sent": 120, "coll_retransmits": 0,
                            "coll_duplicates": 0},
        }))
        assert not fig.missing
        assert [s.label for s in fig.series] == ["mean", "p99"]
        assert fig.categories == ["host", "nic"]
        assert all(check.ok for check in fig.fidelity)
        assert fig.table and fig.table[0][0] == "barrier"

    def test_collectives_builder_flags_violations(self):
        spec = next(s for s in FIGURES if s.name == "collectives")
        fig = spec.build(spec, _bench(spec.bench, {
            "barrier_latency_mean": {"host": 300.0, "nic": 500.0},
            "barrier_latency_p99": {"host": 900, "nic": 1100},
            "violations": {"host": 0, "nic": 2},
        }))
        first = fig.fidelity[0]
        assert not first.ok and first.measured == 2.0

    def test_fidelity_delta_sign(self):
        spec = next(s for s in FIGURES if s.name == "table2")
        fig = spec.build(spec, _bench(spec.bench, {
            "latency_fits": {"mesh2d": [6.0, 28.0]},  # way off the paper
        }))
        check = fig.fidelity[0]
        assert not check.ok
        # 6.0 against the 3.5 … 4.5 band: 1.5 past its upper end.
        assert check.margin == pytest.approx(-1.5)


class TestPlotting:
    def test_nice_ticks_are_round_and_cover(self):
        ticks = nice_ticks(0.0, 97.0)
        assert ticks[0] <= 0.0 + 1e-9 and ticks[-1] <= 97.0 + 1e-9
        assert all(t == round(t, 10) for t in ticks)

    def test_svg_is_deterministic_and_wellformed(self):
        spec = next(s for s in FIGURES if s.name == "fig2")
        fig = spec.build(spec, _bench(spec.bench, {"delivered": {
            "mesh2d": {"plain": 100, "buffered": 110, "nifdy-": 120},
        }}))
        one, two = render_svg(fig), render_svg(fig)
        assert one == two
        assert one.startswith("<svg ") and one.rstrip().endswith("</svg>")
        assert "<rect" in one          # bars
        assert "stroke-dasharray" not in one or fig.paper_refs

    def test_log_scale_series_render(self):
        spec = next(s for s in FIGURES if s.name == "fig9")
        fig = spec.build(spec, _bench(spec.bench, {
            "scan_cycles": {
                "fattree/plain/no-delay": 800_000,
                "fattree/plain/delay": 100_000,
                "fattree/nifdy/no-delay": 64_000,
                "fattree/nifdy/delay": 70_000,
            },
            "coalesce_cycles": {"plain": 1000, "nifdy": 1000},
        }))
        assert fig.log_y
        svg = render_svg(fig)
        assert "<svg " in svg


class TestHistory:
    def test_append_never_clobbers(self, tmp_path):
        snap = _snapshot(1)
        first = append_snapshot(tmp_path, snap)
        second = append_snapshot(tmp_path, snap)  # same ts + sha
        assert first != second
        assert len(load_history(tmp_path)) == 2

    def test_load_orders_by_timestamp(self, tmp_path):
        for i in (2, 0, 1):
            append_snapshot(tmp_path, _snapshot(i))
        shas = [s.git_sha for s in load_history(tmp_path)]
        assert shas == ["sha0000", "sha0001", "sha0002"]

    def test_snapshot_from_summary(self):
        summary = BenchSummary(
            benches={"test_a": _bench("test_a", {}, wall=2.0)},
        )
        snap = snapshot_from_summary(summary, ["test_a"], sha="abcd123",
                                     timestamp="20260808T000000Z")
        assert snap.git_sha == "abcd123"
        assert snap.bench_wall == {"test_a": 2.0}

    def test_snapshot_rolls_up_farm_campaigns(self):
        summary = BenchSummary(campaigns={
            "c1": CampaignRecord(
                campaign_id="c1",
                points=[{"state": "done"}],
                stats={"points": 1, "retries": 2, "worker_deaths": 1,
                       "poisoned": 0, "resumed": 1},
            ),
            "c2": CampaignRecord(
                campaign_id="c2",
                points=[{"state": "poisoned"}],
                stats={"points": 1, "retries": 1, "worker_deaths": 3,
                       "poisoned": 1, "resumed": 0},
            ),
        })
        snap = snapshot_from_summary(summary, timestamp="20260808T000000Z",
                                     sha="abc")
        assert snap.farm == {"campaigns": 2, "points": 2, "retries": 3,
                             "worker_deaths": 4, "poisoned": 1, "resumed": 1}
        # and without campaigns the field stays empty (v0 snapshots load)
        assert snapshot_from_summary(BenchSummary(), sha="abc",
                                     timestamp="20260808T000001Z").farm == {}

    def test_trajectory_needs_two_points(self):
        assert trajectory_figures([_snapshot(0)]) == []

    def test_trajectory_from_three_snapshots(self):
        figures = trajectory_figures([_snapshot(i) for i in range(3)])
        names = [fig.name for fig in figures]
        assert names == ["trajectory_wall"]
        wall = figures[0]
        assert wall.series[0].label == "total (all benches)"
        assert wall.series[0].ys == [41.0, 42.0, 43.0]


class TestGenerateReport:
    def test_full_report_from_fixture_tree(self, results_tree, tmp_path):
        out = tmp_path / "report"
        result = generate_report(results_tree, out)
        assert (out / "REPORT.md").is_file()
        for spec in FIGURES:
            assert (out / f"{spec.name}.md").is_file()
        # figures with data got plots; the trajectory chart rendered too
        assert (out / "figures" / "fig2.svg").is_file()
        assert (out / "figures" / "table2.svg").is_file()
        assert (out / "figures" / "trajectory_wall.svg").is_file()
        assert result.history_points == 3
        assert result.figures_rendered >= 3  # fig2, table2 + trajectory
        index = (out / "REPORT.md").read_text()
        assert "Fidelity dashboard" in index
        assert "trajectory_wall" in index
        # run health surfaces engine stats, campaigns, the chaos rollup
        assert "cache hits" in index
        assert "deadbeef0123" in index  # the campaigns table
        assert "invariant: 1" in index

    def test_missing_figure_embeds_text_archive(self, results_tree, tmp_path):
        out = tmp_path / "report"
        generate_report(results_tree, out)
        page = (out / "fig6.md").read_text()
        assert "Figure unavailable" in page
        assert "words/kcycle table here" in page

    def test_deterministic_output(self, results_tree, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        generate_report(results_tree, out_a)
        generate_report(results_tree, out_b)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                         if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*")
                         if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_bus_progress_events(self, results_tree, tmp_path):
        bus = EventBus()
        pages, done = [], []
        bus.subscribe("report_page", lambda e: pages.append(e.info))
        bus.subscribe("report_done", lambda e: done.append(e.info))
        generate_report(results_tree, tmp_path / "report", bus=bus)
        assert len(pages) == len(FIGURES)
        assert "fig2.md" in pages
        assert len(done) == 1 and done[0].endswith("REPORT.md")

    def test_html_format(self, results_tree, tmp_path):
        out = tmp_path / "report"
        result = generate_report(results_tree, out, fmt="html")
        assert result.index.name == "REPORT.html"
        html = result.index.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<table" in html and "fig2.html" in html
        assert (out / "fig2.html").is_file()

    def test_unknown_format_rejected(self, results_tree, tmp_path):
        with pytest.raises(ValueError):
            generate_report(results_tree, tmp_path / "r", fmt="pdf")

    def test_empty_tree_still_reports(self, tmp_path):
        result = generate_report(tmp_path / "nothing", tmp_path / "report")
        assert result.index.is_file()
        assert result.figures_rendered == 0
        assert len(result.figures_missing) == len(FIGURES)


class TestCliJson:
    def test_report_command(self, results_tree, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "portal"
        code = main(["report", "--results", str(results_tree),
                     "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "REPORT.md").is_file()
        stdout = capsys.readouterr().out
        assert "figures rendered" in stdout
        assert "history snapshots: 3" in stdout

    def test_run_json_emits_schema_doc(self, capsys):
        from repro.cli import main
        from repro.report.schema import RunStats

        code = main(["run", "--network", "mesh2d", "--traffic", "heavy",
                     "--nodes", "16", "--cycles", "3000", "--json"])
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout is ONLY the document
        assert doc["kind"] == "repro-run"
        record = load_record(doc)
        assert isinstance(record, RunStats)
        assert record.delivered > 0
        assert "packets delivered" in captured.err  # human stats moved

    def test_sweep_json_emits_schema_doc(self, tmp_path, capsys):
        from repro.cli import main
        from repro.report.schema import SweepRecord

        code = main(["sweep", "--network", "mesh2d", "--kind", "load",
                     "--gaps", "800,0", "--cycles", "2000", "--nodes", "16",
                     "--quiet", "--json",
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        captured = capsys.readouterr()
        record = load_record(json.loads(captured.out))
        assert isinstance(record, SweepRecord)
        assert record.sweep == "load"
        assert len(record.points) == 2
        assert record.engine.points == 2
        assert "Offered-load sweep" in captured.err  # table moved to stderr
