"""Tests for the unified results schema (repro.report.schema).

Round-trips every record kind through ``to_dict`` -> ``load_record``, and
migrates a hand-built copy of every *pre-schema* (v0) JSON shape this
repo has archived: bench records with engine stats buried in ``data``,
``BENCH_summary.json`` with the kernel numbers only inside the kernel
bench, sweep-cache entries, chaos reproducers, and ``repro perf --json``
files without a speedup field.
"""

import json

import pytest

from repro.report.schema import (
    CAMPAIGN_POINT_STATES,
    CAMPAIGN_TERMINAL_STATES,
    RUN_STATS_FIELDS,
    SCHEMA_VERSION,
    BenchRecord,
    BenchSummary,
    CampaignRecord,
    ChaosArtifact,
    EngineStats,
    HistorySnapshot,
    KernelPerfRecord,
    KernelRun,
    RunStats,
    SchemaError,
    SweepPointRecord,
    SweepRecord,
    load_record,
    load_results_tree,
    sniff_kind,
    write_record_atomic,
)


def _run_stats(**overrides):
    base = dict(
        network="8x8 mesh", nic_mode="nifdy", num_nodes=64, cycles=20_000,
        sent=5_000, delivered=4_800, completed=True, order_violations=0,
        mean_network_latency=120.5, mean_total_latency=240.25, abandoned=0,
        stall_report=None, violations=[],
    )
    base.update(overrides)
    return RunStats(**base)


class TestRoundTrip:
    """to_dict -> load_record reproduces the dataclass for every kind."""

    def test_run_stats(self):
        stats = _run_stats()
        doc = stats.to_dict(stamped=True)
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["kind"] == "repro-run"
        assert load_record(doc) == stats

    def test_bench_record(self):
        record = BenchRecord(
            bench="test_fig2", bench_cycles=20_000, bench_seed=11,
            wall_seconds=1.25, data={"delivered": {"mesh2d": {"plain": 10}}},
            engine=EngineStats(points=24, cache_hits=24, hit_rate=1.0),
        )
        assert load_record(record.to_dict()) == record

    def test_kernel_perf(self):
        record = KernelPerfRecord(
            workload={"network": "fattree", "cycles": 20_000},
            kernels={
                "heap": KernelRun(events=100, loop_seconds=2.0,
                                  events_per_sec=50.0, delivered=7),
                "bucket": KernelRun(events=100, loop_seconds=1.0,
                                    events_per_sec=100.0, delivered=7),
            },
            speedup=2.0, parity_ok=True,
        )
        assert load_record(record.to_dict()) == record

    def test_sweep_point(self):
        record = SweepPointRecord(
            spec={"network": "mesh2d", "seed": 3}, code_version="abc123",
            result=_run_stats(),
        )
        assert load_record(record.to_dict()) == record

    def test_sweep_record(self):
        record = SweepRecord(
            sweep="load", network="mesh2d",
            points=[{"label": "gap=800", "delivered": 184}],
            engine=EngineStats(points=2, executed=2),
        )
        assert load_record(record.to_dict()) == record

    def test_chaos_artifact(self):
        record = ChaosArtifact(
            failure="invariant:exactly_once", detail="uid 7 delivered twice",
            spec={"network": "fattree"}, trial=3, engine_seed=99,
            original_events=5, shrunk_events=1, shrink_probes=12,
        )
        assert load_record(record.to_dict()) == record
        assert record.failure_class == "invariant"

    def test_campaign_record(self):
        record = CampaignRecord(
            campaign_id="abc123def456", created="2026-08-08T12:00:00Z",
            code_version="deadbeef",
            policy={"retries": 2, "seed": 0},
            specs=[{"network": "mesh2d", "seed": 1}],
            points=[{"index": 0, "spec_hash": "aa", "label": "gap=800",
                     "state": "done", "attempts": 2, "worker_deaths": 1,
                     "error": None, "result": {"delivered": 10}}],
            stats={"points": 1, "executed": 1, "retries": 1},
        )
        doc = record.to_dict()
        assert doc["kind"] == "repro-campaign"
        assert sniff_kind(doc) == "repro-campaign"
        assert load_record(doc) == record
        assert record.complete
        assert record.state_counts()["done"] == 1

    def test_campaign_state_vocabulary(self):
        # Terminal states are a subset of the ledger vocabulary; "running"
        # and "pending" must never count as settled.
        assert set(CAMPAIGN_TERMINAL_STATES) < set(CAMPAIGN_POINT_STATES)
        assert "pending" not in CAMPAIGN_TERMINAL_STATES
        assert "running" not in CAMPAIGN_TERMINAL_STATES
        incomplete = CampaignRecord(
            campaign_id="c", points=[{"state": "pending"}],
        )
        assert not incomplete.complete
        assert incomplete.state_counts()["pending"] == 1

    def test_bench_summary_carries_campaigns(self):
        summary = BenchSummary(
            campaigns={"c1": CampaignRecord(campaign_id="c1",
                                            code_version="deadbeef")},
        )
        loaded = load_record(summary.to_dict())
        assert loaded.campaigns["c1"].code_version == "deadbeef"
        # A summary archived while ledgers named an executor still loads.
        doc = summary.to_dict()
        doc["campaigns"]["c1"]["executor"] = "pool"
        assert load_record(doc).campaigns["c1"] == summary.campaigns["c1"]

    def test_bench_summary(self):
        summary = BenchSummary(
            benches={"test_fig2": BenchRecord(bench="test_fig2")},
            kernel=KernelPerfRecord(speedup=1.5),
        )
        loaded = load_record(summary.to_dict())
        assert loaded.bench_count == 1
        assert loaded.kernel.speedup == 1.5

    def test_history_snapshot(self):
        snap = HistorySnapshot(
            timestamp="20260808T120000Z", git_sha="abc1234", bench_count=3,
            session_benches=["test_fig2"], bench_wall={"test_fig2": 1.5},
            kernel_events_per_sec={"bucket": 100.0}, kernel_speedup=1.6,
            bench_cycles=20_000,
        )
        assert load_record(snap.to_dict()) == snap
        assert snap.wall_total == 1.5

    def test_json_serialisable(self):
        # Every stamped doc must survive an actual JSON round trip.
        for record in (_run_stats(), BenchRecord(bench="b"),
                       KernelPerfRecord(), ChaosArtifact(),
                       HistorySnapshot(), SweepRecord()):
            doc = (record.to_dict(stamped=True)
                   if isinstance(record, RunStats) else record.to_dict())
            assert load_record(json.loads(json.dumps(doc))) == record


class TestV0Migration:
    """Every pre-schema shape on disk loads into the current dataclass."""

    def test_v0_bench_with_embedded_engine(self):
        doc = {
            "bench": "test_fig2_heavy_synthetic",
            "bench_cycles": 20000, "bench_seed": 11, "wall_seconds": 38.1,
            "data": {
                "delivered": {"mesh2d": {"plain": 100, "nifdy-": 120}},
                "engine": {"points": 24, "cache_hits": 24, "executed": 0,
                           "errors": 0, "timeouts": 0, "hit_rate": 1.0,
                           "wall_s": 0.05},
            },
        }
        record = load_record(doc)
        assert isinstance(record, BenchRecord)
        # the engine ledger is hoisted out of data into the typed field
        assert record.engine.cache_hits == 24
        assert "engine" not in record.data
        assert record.data["delivered"]["mesh2d"]["nifdy-"] == 120

    def test_v0_summary_recovers_kernel(self):
        doc = {
            "bench_count": 1,
            "benches": {
                "test_kernel_events_per_sec": {
                    "bench": "test_kernel_events_per_sec",
                    "bench_cycles": 20000, "bench_seed": 11,
                    "wall_seconds": 11.5,
                    "data": {"kernel_perf": {
                        "workload": {"network": "fattree"},
                        "kernels": {
                            "heap": {"events_per_sec": 50.0},
                            "bucket": {"events_per_sec": 80.0},
                        },
                        "speedup": 1.6, "parity_ok": True,
                    }},
                },
            },
        }
        summary = load_record(doc)
        assert isinstance(summary, BenchSummary)
        assert summary.kernel is not None
        assert summary.kernel.speedup == 1.6

    def test_v0_sweep_cache_entry(self):
        doc = {
            "spec": {"network": "mesh2d", "nic_mode": "plain", "seed": 0},
            "code_version": "deadbeef",
            "result": {name: getattr(_run_stats(), name)
                       for name in RUN_STATS_FIELDS},
        }
        record = load_record(doc)
        assert isinstance(record, SweepPointRecord)
        assert record.result.delivered == 4_800
        assert record.code_version == "deadbeef"

    def test_v0_chaos_artifact(self):
        doc = {
            "kind": "repro-chaos-reproducer", "version": 1,
            "failure": "stall", "detail": "no progress for 200000 cycles",
            "spec": {"network": "fattree"}, "original_events": 3,
            "shrunk_events": 1, "shrink_probes": 20, "trial": 7,
            "engine_seed": 42,
        }
        record = load_record(doc)
        assert isinstance(record, ChaosArtifact)
        assert record.failure_class == "stall"
        assert record.shrunk_events == 1

    def test_v0_kernel_perf_computes_speedup(self):
        # `repro perf --json` v0 files have no speedup field.
        doc = {
            "workload": {"network": "fattree", "nodes": 64},
            "kernels": {
                "heap": {"events": 10, "loop_seconds": 2.0,
                         "events_per_sec": 50.0, "delivered": 3},
                "bucket": {"events": 10, "loop_seconds": 1.0,
                           "events_per_sec": 100.0, "delivered": 3},
            },
            "parity_ok": True,
        }
        record = load_record(doc)
        assert isinstance(record, KernelPerfRecord)
        assert record.speedup == 2.0

    def test_v0_run_result(self):
        doc = {name: getattr(_run_stats(), name) for name in RUN_STATS_FIELDS}
        record = load_record(doc)
        assert isinstance(record, RunStats)
        assert record.throughput == pytest.approx(240.0)

    def test_checked_in_results_tree_all_load(self):
        # The actual archived tree must parse wholesale -- summary, every
        # per-bench file, and any chaos/history artifacts.
        from pathlib import Path

        results = Path(__file__).parent.parent / "benchmarks" / "results"
        loaded = 0
        for path in results.rglob("*.json"):
            if ".cache" in path.parts:
                continue
            load_record(path)
            loaded += 1
        assert loaded >= 10  # the tree ships with a full bench archive


class TestLoaderEdges:
    def test_unknown_shape_raises(self):
        with pytest.raises(SchemaError):
            sniff_kind({"mystery": 1})
        with pytest.raises(SchemaError):
            load_record({"mystery": 1})

    def test_non_object_raises(self):
        with pytest.raises(SchemaError):
            load_record([1, 2, 3])

    def test_newer_schema_refused(self):
        doc = _run_stats().to_dict(stamped=True)
        doc["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError):
            load_record(doc)

    def test_write_record_atomic(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.json"
        write_record_atomic(path, _run_stats())  # creates parents
        assert load_record(path) == _run_stats()
        write_record_atomic(path, _run_stats(delivered=1))  # overwrites
        assert load_record(path).delivered == 1
        assert not path.with_name(path.name + ".tmp").exists()

    def test_load_results_tree_keeps_stale_summary_benches(self, tmp_path):
        # A bench present only in the old summary (its per-bench file was
        # cleaned) must survive; per-bench files win over summary copies.
        stale = BenchRecord(bench="test_gone", wall_seconds=9.0)
        old_in_summary = BenchRecord(bench="test_fresh", wall_seconds=1.0)
        write_record_atomic(
            tmp_path / "BENCH_summary.json",
            BenchSummary(benches={"test_gone": stale,
                                  "test_fresh": old_in_summary}),
        )
        fresh = BenchRecord(bench="test_fresh", wall_seconds=2.0)
        write_record_atomic(tmp_path / "test_fresh.json", fresh)
        summary = load_results_tree(tmp_path)
        assert summary.benches["test_gone"].wall_seconds == 9.0
        assert summary.benches["test_fresh"].wall_seconds == 2.0

    def test_engine_shares_schema_fields(self):
        # The sweep engine's slim-result shape IS the schema's field list;
        # a drift here would corrupt the cache/report contract.
        from repro.experiments.engine import _RESULT_FIELDS

        assert tuple(_RESULT_FIELDS) == tuple(RUN_STATS_FIELDS)

    def test_experiment_result_run_stats(self):
        from repro.experiments import (ExperimentSpec, heavy_synthetic,
                                       run_experiment)

        result = run_experiment(ExperimentSpec(
            network="mesh2d", traffic=heavy_synthetic(),
            num_nodes=16, nic_mode="nifdy", run_cycles=2_000, seed=1,
        ))
        stats = result.run_stats()
        assert isinstance(stats, RunStats)
        assert stats.delivered == result.delivered
        assert load_record(stats.to_dict(stamped=True)) == stats
