"""Tests for the sweep engine's fault-tolerant side: executor backends
(repro.farm.executors), retry policies and resumable manifests
(repro.farm.manifest).

These features exist to survive exactly the failures a test module cannot
fake from the outside: workers dying hard mid-point, campaigns killed
mid-flight, retry schedules that must replay identically after a
resume.  The crash-point traffic (registered in the package so fresh
worker interpreters can build it) stages those failures on purpose;
the assertions here are the acceptance criteria of the campaign path -- a
crashed-and-resumed campaign must end byte-identical to an
uninterrupted serial baseline, with zero re-executions of settled
points.
"""

import json

import pytest

from repro.experiments import (
    ExperimentSpec,
    FarmPolicy,
    SweepEngine,
    heavy_synthetic,
)
from repro.experiments.engine import backoff_delay
from repro.farm.executors import (
    DEFAULT_EXECUTOR,
    FarmExecutor,
    executor_descriptions,
    executor_names,
    register_executor,
    resolve_executor,
)
from repro.farm.manifest import (
    ManifestMismatch,
    PointState,
    RunManifest,
    campaign_id_for,
)
from repro.report.schema import CampaignRecord, load_record, sniff_kind
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


class TestExecutorRegistry:
    def test_shipped_backends(self):
        names = executor_names()
        assert "pool" in names and "subprocess" in names
        assert DEFAULT_EXECUTOR in names
        descriptions = executor_descriptions()
        assert all(descriptions[name] for name in names)

    def test_contains_crashes_contract(self):
        assert not resolve_executor("pool").contains_crashes
        assert resolve_executor("subprocess").contains_crashes

    def test_reregister_same_class_is_noop(self):
        cls = resolve_executor("pool")
        assert register_executor(cls) is cls

    def test_name_collision_raises(self):
        class Impostor(FarmExecutor):
            name = "pool"

        with pytest.raises(ValueError, match="already registered"):
            register_executor(Impostor)

    def test_unnamed_class_rejected(self):
        class Nameless(FarmExecutor):
            pass

        with pytest.raises(ValueError, match="no name"):
            register_executor(Nameless)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="pool"):
            resolve_executor("mainframe")


class TestManifest:
    def grid(self):
        return [small_spec(seed=s, label=f"seed={s}") for s in (1, 2)]

    def test_round_trip_through_schema_loader(self, tmp_path):
        specs = self.grid()
        path = tmp_path / "campaign.json"
        manifest = RunManifest.new(
            campaign_id_for(specs, "pool"), specs, "pool",
            FarmPolicy().as_dict(), path=path,
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
        assert again.executor == "pool"
        assert again.code_version == manifest.code_version
        assert [p.to_dict() for p in again.points] == \
            [p.to_dict() for p in manifest.points]
        assert again.specs == manifest.specs

    def test_v0_shape_sniffs_as_campaign(self):
        doc = {"campaign_id": "abc", "points": [], "specs": [],
               "executor": "pool"}
        assert sniff_kind(doc) == "repro-campaign"

    def test_verify_resumable_rejects_different_grid(self, tmp_path):
        specs = self.grid()
        manifest = RunManifest.new("c1", specs, "pool", {})
        with pytest.raises(ManifestMismatch, match="offers"):
            manifest.verify_resumable(specs[:1])
        with pytest.raises(ManifestMismatch, match="different campaign"):
            manifest.verify_resumable([specs[0],
                                       specs[1].replace(seed=99)])

    def test_verify_resumable_rejects_stale_code(self):
        specs = self.grid()
        manifest = RunManifest.new("c1", specs, "pool", {})
        manifest.code_version = "0" * 40
        with pytest.raises(ManifestMismatch, match="stale"):
            manifest.verify_resumable(specs)

    def test_point_state_validates(self):
        with pytest.raises(ValueError, match="unknown point state"):
            PointState(index=0, spec_hash=None, label="x", state="retrying")

    def test_campaign_id_is_deterministic_and_material(self):
        specs = self.grid()
        assert campaign_id_for(specs, "pool") == \
            campaign_id_for(self.grid(), "pool")
        assert campaign_id_for(specs, "pool") != \
            campaign_id_for(specs, "subprocess")
        assert campaign_id_for(specs, "pool") != \
            campaign_id_for(specs[::-1], "pool")


class TestFarmEngine:
    """The engine on a named backend: behaviour that needs no staged crash."""

    def grid(self):
        return [small_spec(seed=s, label=f"seed={s}") for s in (1, 2, 3)]

    def test_matches_sweep_engine_results(self, tmp_path):
        specs = self.grid()
        baseline = SweepEngine(jobs=1, cache=False).run(specs)
        farm = SweepEngine(executor="pool", cache=False)
        points = farm.run(specs)
        assert [point_tuple(p) for p in points] == \
            [point_tuple(p) for p in baseline]
        assert farm.stats.executed == len(specs)
        assert farm.stats.retries == 0

    def test_plain_error_is_not_retried(self, tmp_path):
        bad = small_spec(nic_mode="warp", label="bad")
        farm = SweepEngine(executor="pool", cache=False,
                           manifest=RunManifest.new("c", [bad], "pool", {}))
        (point,) = farm.run([bad])
        assert point.error is not None and "ValueError" in point.error
        assert farm.manifest.points[0].attempts == 1
        assert farm.manifest.points[0].state == "errored"
        assert farm.stats.retries == 0 and farm.stats.errors == 1

    def test_retry_errors_burns_budget_on_backoff_schedule(self):
        bad = small_spec(nic_mode="warp", label="bad")
        policy = FarmPolicy(retries=2, retry_errors=True, seed=5)
        slept = []
        farm = SweepEngine(executor="pool", cache=False, policy=policy,
                           sleep=slept.append,
                           manifest=RunManifest.new("c", [bad], "pool", {}))
        (point,) = farm.run([bad])
        assert point.error is not None
        assert farm.manifest.points[0].attempts == policy.max_attempts
        assert farm.stats.retries == 2
        assert slept == [backoff_delay(policy, 0, 1),
                         backoff_delay(policy, 0, 2)]

    def test_resume_executes_nothing(self, tmp_path):
        specs = self.grid()
        path = tmp_path / "c.json"
        first = SweepEngine(
            executor="pool", cache=False,
            manifest=RunManifest.new(
                campaign_id_for(specs, "pool"), specs, "pool",
                FarmPolicy().as_dict(), path=path,
            ),
        )
        cold = first.run(specs)
        assert first.stats.executed == len(specs)

        second = SweepEngine(executor="pool", cache=False,
                             manifest=RunManifest.load(path))
        warm = second.run(specs)
        assert second.stats.resumed == len(specs)
        assert second.stats.executed == 0
        assert [point_tuple(p) for p in warm] == \
            [point_tuple(p) for p in cold]

    def test_resume_finishes_a_partial_campaign(self, tmp_path):
        specs = self.grid()
        path = tmp_path / "c.json"
        manifest = RunManifest.new(
            campaign_id_for(specs, "pool"), specs, "pool",
            FarmPolicy().as_dict(), path=path,
        )
        SweepEngine(executor="pool", cache=False, manifest=manifest).run(specs)

        # Fake an interruption: points 1 and 2 never settled.
        doc = json.loads(path.read_text())
        for entry in doc["points"][1:]:
            entry.update(state="pending", attempts=0, result=None)
        path.write_text(json.dumps(doc))

        resumed = SweepEngine(executor="pool", cache=False,
                              manifest=RunManifest.load(path))
        points = resumed.run(specs)
        assert resumed.stats.resumed == 1
        assert resumed.stats.executed == 2
        assert [p.error for p in points] == [None, None, None]
        assert RunManifest.load(path).complete

    def test_farm_events_on_bus(self, tmp_path):
        from repro.obs import EventBus, EventKind

        bus = EventBus()
        seen = []
        bus.subscribe(None, lambda e: seen.append(e.kind))
        bad = small_spec(nic_mode="warp", label="bad")
        policy = FarmPolicy(retries=1, retry_errors=True)
        SweepEngine(executor="pool", cache=False, policy=policy, bus=bus,
                    sleep=lambda s: None).run([bad])
        assert seen == [EventKind.FARM_DISPATCH, EventKind.FARM_RETRY,
                        EventKind.FARM_DISPATCH, EventKind.SWEEP_ERROR]

    def test_cache_hit_skips_dispatch(self, tmp_path):
        spec = small_spec()
        warmup = SweepEngine(executor="pool", cache_dir=tmp_path)
        warmup.run([spec])
        assert warmup.stats.executed == 1
        again = SweepEngine(executor="pool", cache_dir=tmp_path)
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
            executor="subprocess", cache=False,
            policy=FarmPolicy(retries=2, backoff_base=0.0),
            manifest=RunManifest.new("kill1", specs, "subprocess", {},
                                     path=tmp_path / "kill1.json"),
        )
        points = farm.run(specs)
        # Attempt 1 of the crasher died hard (exit 86); attempt 2 ran
        # clean and the whole campaign is byte-identical to the baseline.
        assert [point_tuple(p) for p in points] == truth
        assert farm.stats.worker_deaths == 1
        assert farm.stats.retries == 1
        assert farm.stats.errors == 0
        crasher = farm.manifest.points[1]
        assert crasher.attempts == 2 and crasher.worker_deaths == 1
        assert crasher.state == "done"

    def test_exit_status_is_diagnosed(self, tmp_path):
        from repro.traffic.crashpoint import CRASH_EXIT_CODE

        spec = crash_spec()  # no flag: crashes on every attempt
        farm = SweepEngine(executor="subprocess", cache=False,
                           policy=FarmPolicy(retries=0))
        (point,) = farm.run([spec])
        assert point.worker_died and point.error is not None
        assert f"status {CRASH_EXIT_CODE}" in point.error

    def test_persistent_crasher_is_poisoned(self, tmp_path):
        spec = crash_spec()
        policy = FarmPolicy(retries=3, backoff_base=0.0)
        farm = SweepEngine(
            executor="subprocess", cache=False, policy=policy,
            manifest=RunManifest.new("poison", [spec], "subprocess", {},
                                     path=tmp_path / "poison.json"),
        )
        (point,) = farm.run([spec])
        assert point.poisoned and point.worker_died
        assert farm.stats.poisoned == 1
        assert farm.stats.worker_deaths == policy.poison_threshold
        assert farm.manifest.points[0].state == "poisoned"
        # Quarantine is durable: a resume does not touch the point again.
        resumed = SweepEngine(
            executor="subprocess", cache=False, policy=policy,
            manifest=RunManifest.load(tmp_path / "poison.json"),
        )
        (again,) = resumed.run([spec])
        assert again.poisoned and resumed.stats.resumed == 1
        assert resumed.stats.worker_deaths == 0  # nothing re-ran

    def test_poison_after_caps_deaths_below_budget(self, tmp_path):
        spec = crash_spec()
        policy = FarmPolicy(retries=5, poison_after=2, backoff_base=0.0)
        farm = SweepEngine(
            executor="subprocess", cache=False, policy=policy,
            manifest=RunManifest.new("cap", [spec], "subprocess", {}),
        )
        (point,) = farm.run([spec])
        assert point.poisoned
        assert farm.stats.worker_deaths == 2
        assert farm.manifest.points[0].attempts == 2

    def test_hang_without_retry_budget_is_timed_out_not_poisoned(self):
        # retries=0 leaves no budget to quarantine over: a hang must keep
        # the plain timeout verdict a sweep without a policy reports.
        slow = small_spec(run_cycles=500_000_000, label="slow")
        engine = SweepEngine(executor="pool", cache=False, point_timeout=1.0,
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
        farm = SweepEngine(executor="pool", cache=False,
                           policy=FarmPolicy(retries=2, backoff_base=0.0))
        points = farm.run(specs)
        assert [point_tuple(p) for p in points] == truth
        assert farm.stats.worker_deaths >= 1
        assert farm.stats.errors == 0


class TestFarmCli:
    def farm(self, tmp_path, *extra):
        from repro.cli import main

        return main([
            "farm", "--network", "mesh2d", "--nodes", "16",
            "--cycles", "2000", "--gaps", "800,400", "--no-cache",
            "--manifest-dir", str(tmp_path), "--quiet", *extra,
        ])

    def test_fresh_then_auto_resume_byte_identical(self, tmp_path, capsys):
        assert self.farm(tmp_path) == 0
        first = capsys.readouterr().out
        assert "gap=800" in first and "delivered=" in first
        (manifest_path,) = tmp_path.glob("*.json")
        record = load_record(manifest_path)
        assert record.complete and record.stats["executed"] == 2

        # Same command again: resumes the complete campaign, runs nothing.
        assert self.farm(tmp_path) == 0
        assert capsys.readouterr().out == first
        assert load_record(manifest_path).stats["resumed"] == 2

    def test_explicit_resume_needs_no_grid_flags(self, tmp_path, capsys):
        from repro.cli import main

        assert self.farm(tmp_path) == 0
        first = capsys.readouterr().out
        (manifest_path,) = tmp_path.glob("*.json")
        assert main(["farm", "--resume", str(manifest_path), "--no-cache",
                     "--quiet"]) == 0
        assert capsys.readouterr().out == first

    def test_fresh_needs_network(self, capsys):
        from repro.cli import main

        assert main(["farm", "--quiet"]) == 2
        assert "--network is required" in capsys.readouterr().err
