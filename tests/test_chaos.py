"""Tests for the chaos engine: shrinking, artifacts, replay, determinism."""

import json
from dataclasses import dataclass

import pytest

from repro.cli import main as cli_main
from repro.faults import FaultEvent
from repro.node import PollFor, TrafficDriver
from repro.traffic import CShiftConfig, TrafficSpec, register_traffic
from repro.validate import (
    ChaosConfig,
    ChaosEngine,
    replay_artifact,
    shrink_fault_plan,
    shrink_traffic_config,
)


def _burst(at, until=None, prob=0.1):
    return FaultEvent(kind="loss_burst", at=at, until=until or at + 100,
                      prob=prob)


# ---------------------------------------------------------------- shrinking
class TestShrinkFaultPlan:
    def test_reduces_to_the_one_guilty_event(self):
        guilty = _burst(500)
        events = [_burst(100), _burst(200), guilty, _burst(300), _burst(400)]
        probes_seen = []

        def predicate(candidate):
            probes_seen.append(len(candidate))
            return guilty in candidate

        shrunk, probes = shrink_fault_plan(events, predicate, budget=40)
        assert shrunk == [guilty]
        assert probes == len(probes_seen) <= 40

    def test_two_interacting_events_both_survive(self):
        a, b = _burst(100), _burst(900)
        events = [_burst(200), a, _burst(300), b]
        shrunk, _ = shrink_fault_plan(
            events, lambda c: a in c and b in c, budget=40,
        )
        assert a in shrunk and b in shrunk
        assert len(shrunk) <= len(events)

    def test_empty_plan_tried_first(self):
        probes = []

        def predicate(candidate):
            probes.append(list(candidate))
            return True  # failure needs no faults at all

        shrunk, spent = shrink_fault_plan(
            [_burst(100), _burst(200)], predicate, budget=10,
        )
        assert shrunk == [] and spent == 1
        assert probes == [[]]

    def test_budget_bounds_the_probe_count(self):
        events = [_burst(100 * i) for i in range(1, 9)]
        calls = []

        def predicate(candidate):
            calls.append(1)
            return events[0] in candidate

        shrink_fault_plan(events, predicate, budget=5)
        assert len(calls) <= 5

    def test_never_grows(self):
        events = [_burst(100)]
        shrunk, _ = shrink_fault_plan(events, lambda c: True, budget=10)
        assert len(shrunk) <= 1


class TestShrinkTrafficConfig:
    def test_halves_integer_knobs_while_failing(self):
        config = CShiftConfig(words_per_phase=120)

        def predicate(candidate):
            return candidate.words_per_phase >= 30  # fails down to 30

        shrunk, probes = shrink_traffic_config(config, predicate, budget=20)
        assert shrunk.words_per_phase == 30
        assert probes <= 20

    def test_bools_and_validated_fields_are_safe(self):
        @dataclass
        class Picky:
            flag: bool = True
            count: int = 8

            def __post_init__(self):
                if self.count < 4:
                    raise ValueError("too small")

        shrunk, _ = shrink_traffic_config(Picky(), lambda c: True, budget=20)
        assert shrunk.flag is True        # bools untouched
        assert shrunk.count == 4          # stopped at the validator's floor


# --------------------------------------------------------------- end-to-end
@dataclass
class BlackholeConfig:
    """Nodes poll forever and never declare Done: a guaranteed stall."""

    spin: int = 500


class BlackholeDriver(TrafficDriver):
    def __init__(self, config):
        self.config = config

    def next_action(self):
        return PollFor(self.config.spin)

    def on_packet(self, packet):
        pass


@pytest.fixture(autouse=True)
def _blackhole_registered():
    """Register the stall workload for this module only, then clean up so
    registry-completeness assertions elsewhere stay honest."""
    from repro.traffic import registry

    register_traffic(
        "blackhole", BlackholeConfig,
        lambda node, n, cfg, rngf, exploit: BlackholeDriver(cfg),
    )
    try:
        yield
    finally:
        registry._REGISTRY.pop("blackhole", None)


def _broken_config(tmp_path, trials=1, **overrides):
    base = dict(
        trials=trials, seed=0, traffics=("blackhole",), num_nodes=4,
        watchdog_cycles=5_000, max_cycles=100_000, shrink_budget=8,
        artifact_dir=str(tmp_path),
    )
    base.update(overrides)
    return ChaosConfig(**base)


class TestChaosEndToEnd:
    def test_clean_batch_reports_ok(self, tmp_path):
        report = ChaosEngine(ChaosConfig(
            trials=3, seed=0, artifact_dir=str(tmp_path),
        )).run()
        assert report.ok and report.trials == 3
        assert not list(tmp_path.glob("*.json"))

    def test_failure_is_shrunk_archived_and_replayable(self, tmp_path):
        report = ChaosEngine(_broken_config(tmp_path)).run()
        assert not report.ok
        (finding,) = report.findings
        assert finding.failure == "stall"
        # Acceptance criterion: the shrunk plan is never larger.
        assert finding.shrunk_events <= finding.original_events
        # The blackhole stalls with or without faults, so ddmin's first
        # probe (the empty plan) must have won.
        assert finding.shrunk_events == 0

        doc = json.loads(open(finding.artifact).read())
        assert doc["kind"] == "repro-chaos-reproducer"
        assert doc["failure"] == "stall"
        assert doc["spec"]["observe"]["validate"] is True

        reproduced, failure, _ = replay_artifact(finding.artifact)
        assert reproduced and failure == "stall"

    def test_trial_specs_are_deterministic(self, tmp_path):
        config = _broken_config(tmp_path)
        a, b = ChaosEngine(config), ChaosEngine(config)
        for trial in range(4):
            assert (
                a.trial_spec(trial).content_hash()
                == b.trial_spec(trial).content_hash()
            )
        # Different seeds draw different trials.
        other = ChaosEngine(_broken_config(tmp_path, seed=1))
        assert (
            a.trial_spec(0).content_hash() != other.trial_spec(0).content_hash()
        )

    def test_generated_link_failures_name_real_links(self):
        engine = ChaosEngine(ChaosConfig(trials=0, seed=3))
        rng = engine._trial_rng(0)
        names = set(engine.link_names)
        for _ in range(50):
            fault = engine._random_fault(rng)
            if fault.kind == "link_fail":
                assert fault.link in names
            assert fault.until is None or fault.until <= engine.config.fault_window

    def test_trial_specs_survive_json(self):
        engine = ChaosEngine(ChaosConfig(trials=2, seed=0))
        for trial in range(2):
            spec = engine.trial_spec(trial)
            from repro.experiments import ExperimentSpec

            assert ExperimentSpec.from_json(spec.to_json()) == spec


class TestChaosCli:
    def test_replay_exit_codes(self, tmp_path, capsys):
        report = ChaosEngine(_broken_config(tmp_path)).run()
        artifact = report.findings[0].artifact
        assert cli_main(["chaos", "--replay", artifact]) == 0
        assert "reproduced: stall" in capsys.readouterr().out

        # An artifact claiming a failure the spec does not exhibit: exit 2.
        doc = json.loads(open(artifact).read())
        clean = doc.copy()
        clean["failure"] = "invariant:exactly_once"
        clean["spec"] = clean["spec"].copy()
        clean["spec"]["traffic"] = TrafficSpec(
            "cshift", CShiftConfig(words_per_phase=24),
        ).to_dict()
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(clean))
        assert cli_main(["chaos", "--replay", str(stale)]) == 2
        assert "did NOT reproduce" in capsys.readouterr().out

    def test_replay_rejects_foreign_json(self, tmp_path):
        bogus = tmp_path / "not-an-artifact.json"
        bogus.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(ValueError, match="not a chaos reproducer"):
            cli_main(["chaos", "--replay", str(bogus)])

    def test_unknown_nic_mode_fails_before_any_trial(self, tmp_path):
        artifacts = tmp_path / "chaos"
        with pytest.raises(ValueError, match="unknown NIC mode"):
            cli_main([
                "chaos", "--nic-modes", "bogus", "--trials", "2", "--quiet",
                "--artifact-dir", str(artifacts),
            ])
        assert not artifacts.exists()

    def test_batch_exit_codes(self, tmp_path, capsys):
        code = cli_main([
            "chaos", "--trials", "2", "--seed", "0", "--quiet",
            "--artifact-dir", str(tmp_path / "clean"),
        ])
        assert code == 0
        assert "no failures" in capsys.readouterr().out
