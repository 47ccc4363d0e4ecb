"""Tests for the ExperimentSpec API and the cache-backed sweep engine."""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentSpec,
    ResultCache,
    SpecSerializationError,
    SweepEngine,
    code_version,
    heavy_synthetic,
    light_synthetic,
    run_experiment,
)
from repro.faults import FaultPlan
from repro.nic import NifdyParams
from repro.traffic import SyntheticConfig, TrafficSpec


def small_spec(**overrides):
    base = dict(
        network="mesh2d", traffic=heavy_synthetic(), num_nodes=16,
        nic_mode="nifdy", run_cycles=3000, seed=2,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestTrafficSpec:
    def test_unknown_name_fails_fast(self):
        with pytest.raises(ValueError, match="unknown traffic"):
            TrafficSpec("wormhole_storm")

    def test_wrong_config_type_rejected(self):
        from repro.traffic import CShiftConfig

        with pytest.raises(TypeError):
            TrafficSpec("heavy", CShiftConfig())

    def test_callable_with_factory_signature(self):
        from repro.sim import RngFactory

        drv = TrafficSpec("heavy")(0, 16, RngFactory(1), exploit=False)
        assert hasattr(drv, "next_action")

    def test_round_trips_tuple_config_fields(self):
        cfg = SyntheticConfig.light_traffic()
        assert isinstance(cfg.ignore_cycles, tuple)
        spec = TrafficSpec("light", cfg)
        again = TrafficSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.resolved_config() == cfg


class TestSpecSerialization:
    def test_json_round_trip_defaults(self):
        spec = small_spec()
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec

    def test_json_round_trip_loaded_fields(self):
        plan = FaultPlan.from_shorthand(["burst@100-200:prob=0.05"])
        spec = small_spec(
            traffic=light_synthetic(),
            nifdy_params=NifdyParams(opt_size=4, pool_size=8, dialogs=1,
                                     window=4),
            fault_plan=plan,
            network_overrides={"vcs_per_net": 2},
            drop_prob=0.01,
            label="loaded",
        )
        again = ExperimentSpec.from_json(spec.to_json())
        assert again == spec
        assert again.label == "loaded"
        assert again.nifdy_params.window == 4
        assert len(list(again.fault_plan)) == len(list(plan))

    def test_opaque_traffic_is_not_portable(self):
        def factory(node, num_nodes, rngf, exploit):  # pragma: no cover
            raise AssertionError("never driven in this test")

        spec = small_spec(traffic=factory)
        assert not spec.portable
        with pytest.raises(SpecSerializationError):
            spec.to_dict()
        with pytest.raises(SpecSerializationError):
            spec.content_hash()

    def test_unknown_nic_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown nic_mode 'bogus'"):
            small_spec(nic_mode="bogus")

    def test_unknown_exhaust_policy_rejected(self):
        # Checked on every mode, not only the retransmitting ones.
        with pytest.raises(ValueError, match="unknown on_exhaust 'bogus'"):
            small_spec(nic_mode="plain", on_exhaust="bogus")

    def test_replace_makes_changed_copy(self):
        spec = small_spec()
        other = spec.replace(seed=9)
        assert other.seed == 9 and spec.seed == 2
        assert other != spec


class TestContentHash:
    def test_label_and_observe_are_cosmetic(self):
        from repro.obs import Observability

        spec = small_spec()
        assert spec.content_hash() == spec.replace(label="x").content_hash()
        assert (
            spec.content_hash()
            == spec.replace(observe=Observability(events=True)).content_hash()
        )

    def test_material_fields_change_the_hash(self):
        spec = small_spec()
        assert spec.content_hash() != spec.replace(seed=3).content_hash()
        assert (
            spec.content_hash()
            != spec.replace(nic_mode="plain").content_hash()
        )

    def test_stable_across_processes(self):
        """The hash must not depend on PYTHONHASHSEED or process state."""
        program = (
            "from repro.experiments import ExperimentSpec, heavy_synthetic\n"
            "spec = ExperimentSpec(network='mesh2d',"
            " traffic=heavy_synthetic(), num_nodes=16, nic_mode='nifdy',"
            " run_cycles=3000, seed=2)\n"
            "print(spec.content_hash())"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run(
            [sys.executable, "-c", program], env=env,
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == small_spec().content_hash()


class TestResultCache:
    def test_hit_after_put_and_invalidation_on_spec_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        assert cache.get(spec) is None
        cache.put(spec, {"delivered": 42, "cycles": 3000})
        assert cache.get(spec)["delivered"] == 42
        # any material change misses
        assert cache.get(spec.replace(seed=3)) is None

    def test_entry_keyed_on_code_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        cache.put(spec, {"delivered": 1})
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        assert files[0].name == f"{spec.content_hash()}-{code_version()[:12]}.json"
        doc = json.loads(files[0].read_text())
        assert doc["code_version"] == code_version()


class TestSweepEngine:
    def grid_specs(self):
        specs = []
        for o in (2, 8):
            for w in (0, 4):
                params = NifdyParams(opt_size=o, pool_size=8,
                                     dialogs=1 if w else 0, window=w)
                specs.append(small_spec(
                    nic_mode="nifdy-", nifdy_params=params,
                    label=f"O={o} W={w}",
                ))
        return specs

    def test_serial_matches_direct_run(self, tmp_path):
        engine = SweepEngine(jobs=1, cache_dir=tmp_path)
        (point,) = engine.run([small_spec()])
        direct = run_experiment(small_spec())
        assert point.delivered == direct.delivered
        assert point.cycles == direct.cycles
        assert point.sent == direct.sent

    def test_parallel_matches_serial_on_table3_grid(self, tmp_path):
        specs = self.grid_specs()
        serial = SweepEngine(jobs=1, cache=False).run(specs)
        parallel = SweepEngine(jobs=2, cache=False).run(specs)
        assert [p.delivered for p in parallel] == [p.delivered for p in serial]
        assert [p.cycles for p in parallel] == [p.cycles for p in serial]
        assert [p.label for p in parallel] == [p.label for p in serial]
        assert all(p.ok for p in parallel)

    def test_second_run_comes_from_cache(self, tmp_path):
        specs = self.grid_specs()
        first = SweepEngine(jobs=1, cache_dir=tmp_path)
        cold = first.run(specs)
        assert first.stats.executed == len(specs)
        assert first.stats.cache_hits == 0
        second = SweepEngine(jobs=1, cache_dir=tmp_path)
        warm = second.run(specs)
        assert second.stats.cache_hits == len(specs)
        assert second.stats.executed == 0
        assert second.stats.hit_rate == 1.0
        assert [p.delivered for p in warm] == [p.delivered for p in cold]
        assert all(p.cached for p in warm)

    def test_spec_change_misses_the_cache(self, tmp_path):
        engine = SweepEngine(jobs=1, cache_dir=tmp_path)
        engine.run([small_spec()])
        engine.run([small_spec(seed=5)])
        assert engine.stats.cache_hits == 0
        assert engine.stats.executed == 2

    def test_crashed_point_is_isolated(self, tmp_path):
        bad = small_spec(active_nodes=99)  # out of range: raises in the runner
        good = small_spec()
        engine = SweepEngine(jobs=1, cache_dir=tmp_path)
        points = engine.run([bad, good])
        assert not points[0].ok and "ValueError" in points[0].error
        assert points[1].ok and points[1].delivered > 0
        assert engine.stats.errors == 1

    def test_crashed_point_is_isolated_in_workers(self, tmp_path):
        bad = small_spec(active_nodes=99)
        good = small_spec()
        points = SweepEngine(jobs=2, cache_dir=tmp_path).run([bad, good])
        assert not points[0].ok and points[1].ok

    def test_errors_are_not_cached(self, tmp_path):
        bad = small_spec(active_nodes=99)
        engine = SweepEngine(jobs=1, cache_dir=tmp_path)
        engine.run([bad])
        engine.run([bad])
        assert engine.stats.errors == 2
        assert engine.stats.cache_hits == 0

    def test_opaque_traffic_runs_in_process_uncached(self, tmp_path):
        from repro.traffic import SyntheticDriver

        def factory(node, num_nodes, rngf, exploit):
            return SyntheticDriver(
                node, num_nodes, SyntheticConfig.heavy_traffic(), rngf,
                exploit,
            )

        spec = small_spec(traffic=factory)
        engine = SweepEngine(jobs=2, cache_dir=tmp_path)
        (point,) = engine.run([spec])
        assert point.ok and point.delivered > 0
        assert point.spec_hash is None
        assert not list(tmp_path.glob("*.json"))

    def test_progress_and_bus_events(self, tmp_path):
        from repro.obs import EventBus, EventKind

        bus = EventBus()
        seen = []
        bus.subscribe(None, lambda e: seen.append(e.kind))
        calls = []
        engine = SweepEngine(
            jobs=1, cache_dir=tmp_path,
            progress=lambda done, total, point: calls.append((done, total)),
            bus=bus,
        )
        engine.run([small_spec()])
        engine.run([small_spec()])
        assert calls == [(1, 1), (1, 1)]
        # One dispatched attempt, its settlement, then the cache hit
        # (a cache hit dispatches nothing).
        assert seen == [EventKind.FARM_DISPATCH, EventKind.SWEEP_POINT,
                        EventKind.SWEEP_CACHE_HIT]


class TestPointTimeout:
    """The per-point wall-clock bound: hung workers degrade, not wedge."""

    def test_hung_point_degrades_to_errored(self, tmp_path):
        # A 500M-cycle horizon takes minutes; the 1s bound must kill it.
        slow = small_spec(run_cycles=500_000_000, label="slow")
        engine = SweepEngine(jobs=1, cache_dir=tmp_path, point_timeout=1.0)
        (point,) = engine.run([slow])
        assert point.error is not None and point.timed_out
        assert "timeout" in point.error
        assert not point.ok and not point.completed
        assert engine.stats.timeouts == 1 and engine.stats.errors == 1
        assert not list(tmp_path.glob("*.json"))  # never cache a timeout

    def test_points_starved_behind_a_hang_are_rescued(self, tmp_path):
        slow = small_spec(run_cycles=500_000_000, label="slow")
        quick = small_spec(label="quick")
        engine = SweepEngine(jobs=1, cache_dir=tmp_path, point_timeout=2.0)
        points = engine.run([slow, quick])
        assert [p.label for p in points] == ["slow", "quick"]
        assert points[0].timed_out
        # quick was only queued behind the hang: it must re-run in a fresh
        # pool and succeed, not inherit the timeout verdict.
        assert points[1].ok and points[1].delivered > 0 and not points[1].timed_out

    def test_timed_engine_matches_untimed_results(self, tmp_path):
        spec = small_spec()
        untimed = SweepEngine(jobs=1, cache=False).run([spec])[0]
        timed = SweepEngine(
            jobs=1, cache=False, point_timeout=120.0,
        ).run([spec])[0]
        assert (timed.delivered, timed.cycles, timed.sent) == (
            untimed.delivered, untimed.cycles, untimed.sent,
        )


class TestWorkerDeathContainment:
    """A hard worker death (os._exit: no Python unwind, breaks the shared
    ProcessPoolExecutor) must cost exactly the points it killed."""

    def crash(self, **overrides):
        from repro.traffic import CrashPointConfig, TrafficSpec

        cfg = CrashPointConfig(packets=8, after_packets=4, mode="exit")
        return small_spec(traffic=TrafficSpec("crashpoint", cfg),
                          label="crasher", **overrides)

    def test_death_settles_point_and_rescues_the_rest(self, tmp_path):
        # point_timeout forces the worker-pool path even at jobs=1; a
        # crasher run truly in-process would take the test down with it.
        specs = [self.crash(), small_spec(label="a"),
                 small_spec(seed=7, label="b")]
        engine = SweepEngine(jobs=1, cache_dir=tmp_path, point_timeout=120.0)
        points = engine.run(specs)
        assert [p.label for p in points] == ["crasher", "a", "b"]
        assert points[0].worker_died and not points[0].ok
        assert "died abruptly" in points[0].error
        # The survivors re-ran in a fresh pool with their real results.
        assert points[1].ok and points[1].delivered > 0
        assert points[2].ok and points[2].delivered > 0
        assert engine.stats.worker_deaths == 1
        assert engine.stats.errors == 1

    def test_death_verdict_is_never_cached(self, tmp_path):
        engine = SweepEngine(jobs=1, cache_dir=tmp_path, point_timeout=120.0)
        engine.run([self.crash()])
        engine.run([self.crash()])
        assert engine.stats.worker_deaths == 2
        assert engine.stats.cache_hits == 0
        assert not list(tmp_path.glob("*.json"))

    def test_death_under_parallel_workers(self, tmp_path):
        # With jobs=2 the victim may be collateral (the break poisons the
        # whole pool); what must hold: every point settles, every clean
        # survivor keeps its true result, >= 1 death is recorded.
        specs = [self.crash(), small_spec(label="a"),
                 small_spec(seed=7, label="b")]
        engine = SweepEngine(jobs=2, cache=False)
        points = engine.run(specs)
        assert len(points) == len(specs)
        assert engine.stats.worker_deaths >= 1
        serial = SweepEngine(jobs=1, cache=False).run(
            [small_spec(label="a"), small_spec(seed=7, label="b")]
        )
        by_label = {p.label: p for p in points}
        for truth in serial:
            survivor = by_label[truth.label]
            if survivor.ok:
                assert survivor.delivered == truth.delivered


class TestSweepHelpers:
    def test_sweep_cycles_are_actual_not_requested(self):
        """A completion-bounded point records the simulated cycle count."""
        from repro.cli import rank_param_sets
        from repro.experiments import nifdy_param_specs

        grid = [NifdyParams(opt_size=4, pool_size=8, dialogs=0, window=0)]
        points = rank_param_sets(SweepEngine(cache=False).run(
            nifdy_param_specs("mesh2d", grid, num_nodes=16, run_cycles=2000,
                              combine_light_and_heavy=True)
        ), runs_per_set=2)
        # heavy + light at 2000 cycles each: the aggregate must reflect the
        # summed actual cycles, not the single requested horizon
        assert points[0].cycles == 4000

    def test_spec_generators_match_helper_labels(self):
        from repro.experiments import nifdy_param_specs

        grid = [NifdyParams(opt_size=4, pool_size=8, dialogs=1, window=2)]
        specs = nifdy_param_specs("mesh2d", grid, num_nodes=16,
                                  run_cycles=2000)
        assert len(specs) == 2  # heavy + light per grid point
        assert {s.traffic.name for s in specs} == {"heavy", "light"}
        assert all(s.portable for s in specs)

    def test_no_deprecation_warning_from_helpers(self):
        from repro.experiments import offered_load_specs

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            points = SweepEngine(cache=False).run(offered_load_specs(
                "mesh2d", gaps=(400,), num_nodes=16, run_cycles=2000,
            ))
        assert points[0].delivered > 0

    def test_param_fold_is_pure(self):
        from repro.cli import rank_param_sets
        from repro.experiments import SweepPoint

        small = NifdyParams(opt_size=2, pool_size=8, dialogs=0, window=0)
        big = NifdyParams(opt_size=8, pool_size=8, dialogs=1, window=2)
        runs = [
            SweepPoint("O=2 [heavy]", small, 10, 1000, sent=12),
            SweepPoint("O=2 [light]", small, 4, 600, sent=4),
            SweepPoint("O=8 [heavy]", big, 30, 1000, sent=30),
            SweepPoint("O=8 [light]", big, 0, 0, completed=False,
                       error="boom"),
        ]
        ranked = rank_param_sets(runs, runs_per_set=2)
        # One point per set, best first; deliveries, actual cycles and
        # sends summed; a failed run's error marks its whole set.
        assert [p.label for p in ranked] == \
            ["O=8 B=8 D=1 W=2", "O=2 B=8 D=0 W=0"]
        assert [(p.delivered, p.cycles, p.sent) for p in ranked] == \
            [(30, 1000, 30), (14, 1600, 16)]
        assert ranked[0].error == "boom" and not ranked[0].completed
        assert ranked[1].ok and ranked[1].params == small


class TestConcurrentWrites:
    """Two writers of one file: each must land a whole document, and
    neither may lose its temp file to the other's rename."""

    @staticmethod
    def race(monkeypatch, write):
        # Hold every writer at its rename until both have written their
        # temp files: the interleaving a repeated spec at --jobs 2, or two
        # sessions sharing a cache, hits by chance.
        barrier = threading.Barrier(2, timeout=10)
        real_replace = os.replace

        def replace(src, dst):
            barrier.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        errors = []

        def writer():
            try:
                write()
            except Exception as exc:  # noqa: BLE001 - collected below
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []

    def test_cache_put(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        spec = small_spec()
        self.race(monkeypatch, lambda: cache.put(spec, {"delivered": 7}))
        assert cache.get(spec) == {"delivered": 7}
        assert [p.suffix for p in tmp_path.iterdir()] == [".json"]

    def test_write_record_atomic(self, tmp_path, monkeypatch):
        from repro.report.schema import write_record_atomic

        path = tmp_path / "record.json"
        self.race(monkeypatch,
                  lambda: write_record_atomic(path, {"campaign_id": "c"}))
        assert json.loads(path.read_text()) == {"campaign_id": "c"}
        assert list(tmp_path.iterdir()) == [path]
