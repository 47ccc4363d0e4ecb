"""Tests for the sweep engine's fault-tolerant side: the worker pool
(repro.experiments.pool), retry policies, resumable campaign manifests
(repro.experiments.manifest) and the ``repro sweep --manifest-dir``
campaigns built on them.

These features exist to survive exactly the failures a test module cannot
fake from the outside: workers dying hard mid-point, campaigns killed
mid-flight, retry schedules that must replay identically after a
resume.  The crash-point traffic (registered in the package so pool
workers can build it from a spec dict) stages those failures on purpose;
the assertions here are the acceptance criteria of the campaign path -- a
crashed-and-resumed campaign must end byte-identical to an
uninterrupted serial baseline, with zero re-executions of settled
points.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentSpec,
    FarmPolicy,
    SweepEngine,
    heavy_synthetic,
)
from repro.experiments.engine import backoff_delay
from repro.experiments.manifest import (
    ManifestMismatch,
    PointState,
    RunManifest,
    campaign_id_for,
)
from repro.report.schema import CampaignRecord, load_record
from repro.traffic import CrashPointConfig, TrafficSpec


def small_spec(**overrides):
    base = dict(
        network="mesh2d", traffic=heavy_synthetic(), num_nodes=16,
        nic_mode="nifdy", run_cycles=2000, seed=2,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def crash_spec(flag=None, mode="exit", **overrides):
    """A spec whose sender kills its worker once (``flag``) or always."""
    cfg = CrashPointConfig(
        packets=8, after_packets=4, mode=mode,
        once_flag=str(flag) if flag is not None else None,
    )
    base = dict(
        network="mesh2d", traffic=TrafficSpec("crashpoint", cfg),
        num_nodes=16, nic_mode="nifdy", run_cycles=2000, seed=2,
        label="crasher",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def point_tuple(p):
    """The material result of a point: what byte-identity compares."""
    return (p.label, p.delivered, p.cycles, p.sent, p.error is None)


class TestBackoff:
    policy = FarmPolicy(backoff_base=0.1, backoff_factor=2.0,
                        backoff_max=1.0, backoff_jitter=0.5, seed=7)

    def test_deterministic(self):
        # The schedule is a pure function of (policy seed, index, attempt):
        # a resumed campaign backs off exactly like the interrupted one.
        for index in range(4):
            for attempt in range(1, 5):
                assert backoff_delay(self.policy, index, attempt) == \
                    backoff_delay(self.policy, index, attempt)

    def test_bounds_and_growth(self):
        uncapped = [
            min(self.policy.backoff_max,
                self.policy.backoff_base
                * self.policy.backoff_factor ** (a - 1))
            for a in range(1, 8)
        ]
        for attempt, ceiling in enumerate(uncapped, start=1):
            delay = backoff_delay(self.policy, 0, attempt)
            assert 0.0 < delay <= ceiling
            assert delay >= ceiling * (1.0 - self.policy.backoff_jitter)
        assert backoff_delay(self.policy, 0, 7) <= self.policy.backoff_max

    def test_attempt_zero_is_free(self):
        assert backoff_delay(self.policy, 3, 0) == 0.0

    def test_points_are_decorrelated(self):
        delays = {backoff_delay(self.policy, i, 1) for i in range(8)}
        assert len(delays) > 1  # no thundering herd on retry 1

    def test_policy_round_trip(self):
        policy = FarmPolicy(retries=5, poison_after=2, seed=9,
                            retry_errors=True)
        again = FarmPolicy.from_dict(policy.as_dict())
        assert again == policy
        assert again.max_attempts == 6
        assert again.poison_threshold == 2


class TestPoolChoice:
    def test_pool_only_when_a_worker_is_needed(self):
        # The engine's inputs decide: parallelism, a watchdog, a ledger or
        # a retry budget take a worker process; nothing else does.
        assert SweepEngine().pool is None
        assert SweepEngine(policy=FarmPolicy(retries=0)).pool is None
        for needs_worker in (
            dict(jobs=2),
            dict(point_timeout=5.0),
            dict(campaign_dir="unused"),
            dict(policy=FarmPolicy(retries=1)),
        ):
            assert SweepEngine(**needs_worker).pool is not None, needs_worker


class TestManifest:
    def grid(self):
        return [small_spec(seed=s, label=f"seed={s}") for s in (1, 2)]

    def test_round_trip_through_schema_loader(self, tmp_path):
        specs = self.grid()
        path = tmp_path / "campaign.json"
        manifest = RunManifest.new(
            campaign_id_for(specs), specs, FarmPolicy().as_dict(), path=path,
        )
        manifest.points[0].state = "done"
        manifest.points[0].result = {"delivered": 7, "cycles": 2000}
        manifest.checkpoint({"points": 1})

        doc = json.loads(path.read_text())
        assert doc["kind"] == "repro-campaign"
        record = load_record(path)
        assert isinstance(record, CampaignRecord)
        assert record.state_counts()["done"] == 1
        assert not record.complete

        again = RunManifest.load(path)
        assert again.campaign_id == manifest.campaign_id
        assert "executor" not in doc
        assert again.code_version == manifest.code_version
        assert [p.to_dict() for p in again.points] == \
            [p.to_dict() for p in manifest.points]
        assert again.specs == manifest.specs

    def test_archived_ledger_naming_an_executor_still_loads(self):
        # Ledgers written while the engine had two backends carry an
        # ``executor`` name; they must keep loading (the report rolls them up).
        path = (Path(__file__).resolve().parent.parent / "benchmarks"
                / "results" / "chaos" / "campaigns" / "ad439e7e0511.json")
        assert json.loads(path.read_text())["executor"] == "pool"
        manifest = RunManifest.load(path)
        assert manifest.campaign_id == "ad439e7e0511"
        assert len(manifest.points) == len(manifest.specs) > 0
        record = manifest.record()
        assert record.complete
        assert "executor" not in record.to_dict()

    def test_verify_resumable_rejects_different_grid(self, tmp_path):
        specs = self.grid()
        manifest = RunManifest.new("c1", specs, {})
        with pytest.raises(ManifestMismatch, match="offers"):
            manifest.verify_resumable(specs[:1])
        with pytest.raises(ManifestMismatch, match="different campaign"):
            manifest.verify_resumable([specs[0],
                                       specs[1].replace(seed=99)])

    def test_verify_resumable_rejects_stale_code(self):
        specs = self.grid()
        manifest = RunManifest.new("c1", specs, {})
        manifest.code_version = "0" * 40
        with pytest.raises(ManifestMismatch, match="stale"):
            manifest.verify_resumable(specs)

    def test_point_state_validates(self):
        with pytest.raises(ValueError, match="unknown point state"):
            PointState(index=0, spec_hash=None, label="x", state="retrying")

    def test_campaign_id_is_deterministic_and_material(self):
        specs = self.grid()
        assert campaign_id_for(specs) == campaign_id_for(self.grid())
        assert campaign_id_for(specs) != campaign_id_for(specs[::-1])
        assert campaign_id_for(specs) != campaign_id_for(specs[:1])


class TestFarmEngine:
    """The engine on the worker pool: behaviour that needs no staged crash."""

    def grid(self):
        return [small_spec(seed=s, label=f"seed={s}") for s in (1, 2, 3)]

    def test_matches_sweep_engine_results(self, tmp_path):
        specs = self.grid()
        baseline = SweepEngine(jobs=1, cache=False).run(specs)
        farm = SweepEngine(jobs=2, cache=False)
        assert farm.pool is not None
        points = farm.run(specs)
        assert [point_tuple(p) for p in points] == \
            [point_tuple(p) for p in baseline]
        assert farm.stats.executed == len(specs)
        assert farm.stats.retries == 0

    def test_plain_error_is_not_retried(self, tmp_path):
        bad = small_spec(active_nodes=99, label="bad")
        farm = SweepEngine(cache=False, campaign_dir=tmp_path)
        (point,) = farm.run([bad])
        assert point.error is not None and "ValueError" in point.error
        assert farm.manifest.points[0].attempts == 1
        assert farm.manifest.points[0].state == "errored"
        assert farm.stats.retries == 0 and farm.stats.errors == 1

    def test_retry_errors_burns_budget_on_backoff_schedule(self, tmp_path):
        bad = small_spec(active_nodes=99, label="bad")
        policy = FarmPolicy(retries=2, retry_errors=True, seed=5)
        slept = []
        farm = SweepEngine(cache=False, policy=policy,
                           sleep=slept.append, campaign_dir=tmp_path)
        (point,) = farm.run([bad])
        assert point.error is not None
        assert farm.manifest.points[0].attempts == policy.max_attempts
        assert farm.stats.retries == 2
        assert slept == [backoff_delay(policy, 0, 1),
                         backoff_delay(policy, 0, 2)]

    def test_resume_executes_nothing(self, tmp_path):
        specs = self.grid()
        first = SweepEngine(cache=False, campaign_dir=tmp_path)
        cold = first.run(specs)
        assert first.stats.executed == len(specs)
        assert first.manifest.path == \
            tmp_path / f"{campaign_id_for(specs)}.json"

        second = SweepEngine(cache=False, campaign_dir=tmp_path)
        warm = second.run(specs)
        assert second.manifest.path == first.manifest.path
        assert second.stats.resumed == len(specs)
        assert second.stats.executed == 0
        assert [point_tuple(p) for p in warm] == \
            [point_tuple(p) for p in cold]

    def test_resume_finishes_a_partial_campaign(self, tmp_path):
        specs = self.grid()
        path = tmp_path / f"{campaign_id_for(specs)}.json"
        SweepEngine(cache=False, campaign_dir=tmp_path).run(specs)

        # Fake an interruption: points 1 and 2 never settled.
        doc = json.loads(path.read_text())
        for entry in doc["points"][1:]:
            entry.update(state="pending", attempts=0, result=None)
        path.write_text(json.dumps(doc))

        resumed = SweepEngine(cache=False, campaign_dir=tmp_path)
        points = resumed.run(specs)
        assert resumed.stats.resumed == 1
        assert resumed.stats.executed == 2
        assert [p.error for p in points] == [None, None, None]
        assert load_record(path).complete

    def test_resumed_points_are_not_cache_hits(self, tmp_path):
        from repro.obs import EventBus, EventKind

        specs = self.grid()
        SweepEngine(cache=False, campaign_dir=tmp_path).run(specs)
        bus = EventBus()
        seen = []
        bus.subscribe(None, lambda e: seen.append(e.kind))
        again = SweepEngine(cache=False, campaign_dir=tmp_path, bus=bus)
        points = again.run(specs)
        assert [(p.resumed, p.cached) for p in points] == \
            [(True, False)] * len(specs)
        assert again.stats.resumed == len(specs)
        assert again.stats.cache_hits == 0
        assert EventKind.SWEEP_CACHE_HIT not in seen
        assert seen.count(EventKind.FARM_RESUME) == len(specs)

    def test_farm_events_on_bus(self, tmp_path):
        from repro.obs import EventBus, EventKind

        bus = EventBus()
        seen = []
        bus.subscribe(None, lambda e: seen.append(e.kind))
        bad = small_spec(active_nodes=99, label="bad")
        policy = FarmPolicy(retries=1, retry_errors=True)
        SweepEngine(cache=False, policy=policy, bus=bus,
                    sleep=lambda s: None).run([bad])
        assert seen == [EventKind.FARM_DISPATCH, EventKind.FARM_RETRY,
                        EventKind.FARM_DISPATCH, EventKind.SWEEP_ERROR]

    def test_cache_hit_skips_dispatch(self, tmp_path):
        spec = small_spec()
        warmup = SweepEngine(jobs=2, cache_dir=tmp_path)
        warmup.run([spec])
        assert warmup.stats.executed == 1
        again = SweepEngine(jobs=2, cache_dir=tmp_path)
        (point,) = again.run([spec])
        assert again.stats.cache_hits == 1 and again.stats.executed == 0
        assert point.cached


class TestCrashSurvival:
    """The acceptance criteria: hard deaths retried, quarantined, resumed."""

    def campaign(self, tmp_path, flag):
        return [
            small_spec(seed=1, label="seed=1"),
            crash_spec(flag=flag),
            small_spec(seed=3, label="seed=3"),
        ]

    def baseline(self, tmp_path, flag):
        """Uninterrupted serial truth: the crash disarmed up front."""
        flag.write_text("disarmed\n")
        points = SweepEngine(jobs=1, cache=False).run(
            self.campaign(tmp_path, flag)
        )
        flag.unlink()
        return [point_tuple(p) for p in points]

    def test_worker_death_is_retried_to_success(self, tmp_path):
        flag = tmp_path / "armed.flag"
        truth = self.baseline(tmp_path, flag)
        specs = self.campaign(tmp_path, flag)
        farm = SweepEngine(
            cache=False, policy=FarmPolicy(retries=2, backoff_base=0.0),
            campaign_dir=tmp_path,
        )
        points = farm.run(specs)
        # Attempt 1 of the crasher killed its pool worker (exit 86) and
        # the pool was regenerated; attempt 2 ran clean and the whole campaign is byte-identical to the baseline.
        assert [point_tuple(p) for p in points] == truth
        assert farm.stats.worker_deaths == 1
        assert farm.stats.retries == 1
        assert farm.stats.errors == 0
        crasher = farm.manifest.points[1]
        assert crasher.attempts == 2 and crasher.worker_deaths == 1
        assert crasher.state == "done"

    def test_persistent_crasher_is_poisoned(self, tmp_path):
        spec = crash_spec()
        policy = FarmPolicy(retries=3, backoff_base=0.0)
        farm = SweepEngine(cache=False, policy=policy, campaign_dir=tmp_path)
        (point,) = farm.run([spec])
        assert point.poisoned and point.worker_died
        assert farm.stats.poisoned == 1
        assert farm.stats.worker_deaths == policy.poison_threshold
        assert farm.manifest.points[0].state == "poisoned"
        # Quarantine is durable: a resume does not touch the point again.
        resumed = SweepEngine(cache=False, policy=policy,
                              campaign_dir=tmp_path)
        (again,) = resumed.run([spec])
        assert again.poisoned and resumed.stats.resumed == 1
        assert resumed.stats.worker_deaths == 0  # nothing re-ran

    def test_poison_after_caps_deaths_below_budget(self, tmp_path):
        spec = crash_spec()
        policy = FarmPolicy(retries=5, poison_after=2, backoff_base=0.0)
        farm = SweepEngine(cache=False, policy=policy, campaign_dir=tmp_path)
        (point,) = farm.run([spec])
        assert point.poisoned
        assert farm.stats.worker_deaths == 2
        assert farm.manifest.points[0].attempts == 2

    def test_hang_without_retry_budget_is_timed_out_not_poisoned(self):
        # retries=0 leaves no budget to quarantine over: a hang must keep
        # the plain timeout verdict a sweep without a policy reports.
        slow = small_spec(run_cycles=500_000_000, label="slow")
        engine = SweepEngine(cache=False, point_timeout=1.0,
                             policy=FarmPolicy(retries=0))
        (point,) = engine.run([slow])
        assert point.timed_out and not point.poisoned
        assert engine.stats.timeouts == 1 and engine.stats.poisoned == 0
        assert engine.stats.errors == 1

    def test_pool_backend_contains_hard_death(self, tmp_path):
        # The shared pool breaks on a hard death; the backend must
        # regenerate it and the farm must retry to a clean finish.
        flag = tmp_path / "armed.flag"
        truth = self.baseline(tmp_path, flag)
        specs = self.campaign(tmp_path, flag)
        farm = SweepEngine(cache=False,
                           policy=FarmPolicy(retries=2, backoff_base=0.0))
        points = farm.run(specs)
        assert [point_tuple(p) for p in points] == truth
        assert farm.stats.worker_deaths >= 1
        assert farm.stats.errors == 0


class TestFarmCli:
    """``repro sweep --manifest-dir``: every grid kind is a campaign that
    the same command, run again, resumes without executing anything."""

    def sweep(self, tmp_path, *extra):
        from repro.cli import main

        return main([
            "sweep", "--network", "mesh2d", "--nodes", "16",
            "--cycles", "2000", "--no-cache", "--manifest-dir", str(tmp_path),
            "--quiet", *extra,
        ])

    def twice(self, tmp_path, capsys, *extra):
        assert self.sweep(tmp_path, *extra) == 0
        first = capsys.readouterr().out
        (manifest_path,) = tmp_path.glob("*.json")
        record = load_record(manifest_path)
        assert record.complete and record.stats["resumed"] == 0
        executed = record.stats["executed"]
        assert executed == len(record.points)

        # Same command again: resumes the complete campaign, runs nothing.
        assert self.sweep(tmp_path, *extra) == 0
        assert capsys.readouterr().out == first
        stats = load_record(manifest_path).stats
        assert stats["resumed"] == executed and stats["executed"] == 0
        return first

    def test_fresh_then_auto_resume_byte_identical(self, tmp_path, capsys):
        out = self.twice(tmp_path, capsys, "--kind", "load",
                         "--gaps", "800,400")
        assert "gap=800" in out and "delivered=" in out

    def test_params_campaign_resumes(self, tmp_path, capsys):
        out = self.twice(tmp_path, capsys, "--kind", "params",
                         "--opt-grid", "2,8", "--window-grid", "0",
                         "--heavy-only")
        assert "O=2" in out and "O=8" in out

    def test_sizes_campaign_resumes(self, tmp_path, capsys):
        out = self.twice(tmp_path, capsys, "--kind", "sizes",
                         "--sizes", "4,16")
        assert "n=4" in out and "normalized=" in out

    @pytest.mark.parametrize("extra, row", [
        (("--kind", "load", "--nodes", "15", "--gaps", "800"),
         "gap=800       ERROR (see stderr)"),
        (("--kind", "sizes", "--sizes", "16,15"), "n=15     ERROR (see stderr)"),
    ], ids=["load", "sizes"])
    def test_errored_point_is_named(self, tmp_path, capsys, extra, row):
        # A 15-node mesh is not square: the point errors, and the table
        # says so instead of printing a zero delivery count.
        assert self.sweep(tmp_path, *extra) == 1
        out = capsys.readouterr().out
        assert row in out
        assert "=       0" not in out

    def test_second_run_reports_resumed_not_cache(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "--network", "mesh2d", "--nodes", "16",
                "--cycles", "2000", "--no-cache", "--manifest-dir",
                str(tmp_path), "--kind", "load", "--gaps", "800", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert [(p["cached"], p["resumed"]) for p in first["points"]] == \
            [(False, False)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        again = json.loads(captured.out)
        assert [(p["cached"], p["resumed"]) for p in again["points"]] == \
            [(False, True)]
        assert "gap=800: resumed" in captured.err
        assert "gap=800: cache" not in captured.err

    def test_farm_command_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["farm", "--network", "mesh2d"])
        assert exc.value.code == 2
        assert "invalid choice: 'farm'" in capsys.readouterr().err

    def test_fresh_needs_network(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--kind", "load", "--quiet"])
        assert exc.value.code == 2
        assert "--network" in capsys.readouterr().err
