"""The claim table (:mod:`repro.report.claims`): predicate margins, the
archived statuses the report shows, doctored archives that must fail, and
the bench helper that reports every failing claim.  No simulation runs."""

import copy
import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.report import FIGURES, BenchRecord
from repro.report.claims import (CLAIMS, DIVERGENT, FAIL, NO_DATA, PASS,
                                 Claim, above, at_least, at_most, below,
                                 between, claims_for, equals, evaluate)

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"


def _archived(bench):
    return json.loads((RESULTS / f"{bench}.json").read_text())["data"]


def _statuses(bench, data):
    return {r.claim.id: r.status for r in evaluate(claims_for(bench), data)}


# ------------------------------------------------------------- predicates

@pytest.mark.parametrize("predicate, value, margin, holds", [
    (at_least(2.0), 2.0, 0.0, True),
    (at_least(2.0), 1.5, -0.5, False),
    (above(2.0), 2.5, 0.5, True),
    (above(2.0), 2.0, 0.0, False),
    (at_most(1.0), 0.75, 0.25, True),
    (at_most(1.0), 1.0, 0.0, True),
    (below(1.0), 1.0, 0.0, False),
    (below(1.0), 1.5, -0.5, False),
    (between(0.9, 1.15), 0.95, 0.05, True),
    (between(0.9, 1.15), 1.25, -0.1, False),
    (between(0.9, 1.15), 0.8, -0.1, False),
    (equals(6), 6, 0.0, True),
    (equals(6), 7, -1.0, False),
])
def test_margin_sign_and_status(predicate, value, margin, holds):
    assert predicate.margin(value) == pytest.approx(margin)
    assert predicate.holds(value) is holds
    claim = Claim("t.x", "test", lambda d: d["v"], predicate, "§0", "bench")
    (result,) = evaluate([claim], {"v": value})
    assert result.measured == value
    assert result.margin == pytest.approx(margin)
    assert result.status == (PASS if holds else FAIL)


def test_divergence_row_statuses():
    claim = Claim("t.div", "test", lambda d: d["v"], above(1.0), "§0", "b",
                  accepted=at_least(0.92), anchor="divergence-2")
    results = evaluate([claim], {"v": 1.05})
    assert results[0].status == PASS
    (warn,) = evaluate([claim], {"v": 0.937})
    assert warn.status == DIVERGENT
    # The margin is to failure, judged by the accepted predicate.
    assert warn.margin == pytest.approx(0.017)
    (fail,) = evaluate([claim], {"v": 0.9})
    assert fail.status == FAIL and fail.margin == pytest.approx(-0.02)


def test_missing_data_is_no_data():
    claim = Claim("t.x", "test", lambda d: d["absent"], above(0), "§0", "b")
    (result,) = evaluate([claim], {})
    assert result.status == NO_DATA and result.failed
    assert result.measured is None


def test_relative_margin_ranks_across_units():
    def result(predicate, value):
        claim = Claim("t.x", "test", lambda d: d["v"], predicate, "§0", "b")
        return evaluate([claim], {"v": value})[0]

    # 0.005 inside a 0.25-wide band is tighter than 2 networks under 4.
    assert result(between(0.9, 1.15), 0.905).relative_margin == \
        pytest.approx(0.02)
    assert result(at_most(4), 2).relative_margin == pytest.approx(0.5)
    assert result(at_least(0), 3).relative_margin == pytest.approx(3.0)
    # An exact equality has margin 0 whenever it holds: never ranked.
    assert result(equals(0), 0).relative_margin is None
    assert str(equals(6)) == "= 6"


def test_no_data_row_stays_on_page_and_fails():
    spec = next(s for s in FIGURES if s.name == "table2")
    fig = spec.build(spec, BenchRecord(
        bench=spec.bench, bench_cycles=20_000, bench_seed=11,
        wall_seconds=0.0,
        data={"latency_fits": {"mesh2d": [4.0, 28.0], "fattree": [5.0, 37.0]}}))
    statuses = {r.claim.id: r.status for r in fig.fidelity}
    assert len(statuses) == len(claims_for(spec.bench))
    assert statuses["table2.mesh_slope"] == PASS
    assert statuses["table2.cm5_slope"] == NO_DATA


# ------------------------------------------------------------ the table

def test_ids_unique_and_benches_exist():
    ids = [claim.id for claim in CLAIMS]
    assert len(ids) == len(set(ids))
    benches = "".join(p.read_text()
                      for p in (ROOT / "benchmarks").glob("test_*.py"))
    for bench in {claim.bench for claim in CLAIMS}:
        assert f"def {bench}(" in benches, bench


def test_divergence_anchors_are_experiments_headings():
    headings = {
        re.sub(r"[^\w\- ]", "", line.lstrip("#").strip()).lower()
        .replace(" ", "-")
        for line in (ROOT / "EXPERIMENTS.md").read_text().splitlines()
        if line.startswith("#")
    }
    for claim in CLAIMS:
        if claim.accepted is not None:
            assert claim.anchor in headings, claim.id


def test_archive_matches_report_dashboard():
    """Each page's claims, judged on the checked-in archive, give the
    status and count that the checked-in REPORT.md shows."""
    index = (RESULTS / "report" / "REPORT.md").read_text()
    for spec in FIGURES:
        results = evaluate(claims_for(spec.bench), _archived(spec.bench))
        assert all(r.status != NO_DATA for r in results), spec.bench
        statuses = {r.status for r in results}
        symbol = (FAIL if FAIL in statuses else
                  DIVERGENT if DIVERGENT in statuses else PASS)
        (row,) = [line for line in index.splitlines()
                  if f"({spec.name}.md)" in line]
        ok = sum(r.status == PASS for r in results)
        assert f"| {symbol}" in row and f"| {ok}/{len(results)} |" in row, row
        page = (RESULTS / "report" / f"{spec.name}.md").read_text()
        for result in results:
            assert f"`{result.claim.id}`" in page


def test_archive_holds_every_claim():
    """Benches without a report page hold their claims too; only Fig 6's
    flow-control row is a known divergence."""
    for bench in {claim.bench for claim in CLAIMS}:
        for claim_id, status in _statuses(bench, _archived(bench)).items():
            expected = DIVERGENT if claim_id == "fig6.flow_vs_barriers" \
                else PASS
            assert status == expected, claim_id


# ------------------------------------------------ doctored archives fail

def test_swapped_fig2_columns_fail():
    data = copy.deepcopy(_archived("test_fig2_heavy_synthetic"))
    for row in data["delivered"].values():
        row["plain"], row["nifdy-"] = row["nifdy-"], row["plain"]
    statuses = _statuses("test_fig2_heavy_synthetic", data)
    for claim_id in ("fig2.nifdy_vs_plain", "fig2.blocking_vs_plain",
                     "fig2.blocking_vs_buffers", "fig2.buffers_help"):
        assert statuses[claim_id] == FAIL, claim_id


def test_slower_fig9_coalesce_fails():
    data = copy.deepcopy(_archived("test_fig9_radix_scan"))
    data["coalesce_cycles"]["nifdy"] *= 1.2
    assert _statuses("test_fig9_radix_scan", data)["fig9.coalesce"] == FAIL


def test_butterfly_one_hop_short_fails():
    """Claims read full-precision data: one short path among the sampled
    pairs moves the mean by less than a rounded archive would show."""
    data = copy.deepcopy(_archived("test_table3_characteristics"))
    row = data["characteristics"]["butterfly"]
    row["avg_hops"] = row["max_hops"] - 1 / 404
    statuses = _statuses("test_table3_characteristics", data)
    assert statuses["table3.butterfly_constant_distance"] == FAIL


def test_collectives_ratio_of_seven_fails():
    data = copy.deepcopy(_archived("test_barrier_offload"))
    means = data["barrier_latency_mean"]
    means["nic"] = 7 * means["host"]
    statuses = _statuses("test_barrier_offload", data)
    assert statuses["collectives.nic_vs_host"] == FAIL


# ------------------------------------------------------- the bench helper

def _bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_claims_reports_every_failure(capsys):
    report = _bench_conftest().Report("test_fig9_radix_scan", None)
    data = copy.deepcopy(_archived("test_fig9_radix_scan"))
    data["coalesce_cycles"]["nifdy"] *= 1.2      # fig9.coalesce
    data["scan_cycles"]["cm5/nifdy/no-delay"] *= 4  # fig9.cm5_nifdy_cost
    for key, value in data.items():
        report.record(key, value)
    with pytest.raises(AssertionError) as failure:
        report.check_claims()
    message = str(failure.value)
    assert message.startswith("2 of 6 claims failed")
    assert "fig9.coalesce" in message and "fig9.cm5_nifdy_cost" in message
    assert "margin -" in message
    # Every result, passing or not, went into the text archive.
    archived = "\n".join(report._lines)
    assert all(claim.id in archived
               for claim in claims_for("test_fig9_radix_scan"))
    capsys.readouterr()
