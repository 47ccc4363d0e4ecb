"""The benchmark's own tests: every workload at a tiny size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

They check that every metric ``BENCHMARK.json`` names is printed with its
unit, that the digest is a function of the seed, and that the correctness
check can fail.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_contract_names_the_benchmark_workloads():
    assert WORKLOADS == list(run.WORKLOAD_NAMES)
    assert CONTRACT["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = result(bench("--workload", workload, "--seed", "1", "--seconds",
                       "0.1", "--trace", trace, "--tiny"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= run.MIN_REPS
    declared = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert sorted(out["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        printed = out["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_is_a_function_of_the_seed(workload):
    first, error = run.child(workload, 1, tiny=True)
    assert first is not None, error
    again, _ = run.child(workload, 1, tiny=True)
    other, _ = run.child(workload, 2, tiny=True)
    assert again["digest"] == first["digest"]
    assert other["digest"] != first["digest"]


def test_digest_matches_the_heap_kernel():
    default, error = run.child("cshift_cm5", 3, tiny=True)
    assert default is not None, error
    heap, error = run.child("cshift_cm5", 3, tiny=True, kernel="heap")
    assert heap is not None, error
    assert heap["kernel"] == ["heap"] and default["kernel"] != ["heap"]
    assert heap["digest"] == default["digest"]


def test_tracer_wraps_the_cross_layer_entry_points():
    code = "import json, probe; print(json.dumps(probe.Tracer().install()))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    wrapped = set(json.loads(proc.stdout))
    for name in (
        "Link.notify_flit_ready",          # routers/NICs call into links
        "Router.accept_flit",              # links call into routers
        "BaseNIC.accept_flit",             # links call into NICs
        "SyntheticDriver.next_action",     # processors call into traffic
        "Packet.__init__",                 # NICs/traffic build packets
        "MetricsCollector.note_accept",    # a hook the collector hands out
        "EventBus.emit",
        "InvariantMonitor.on_event",       # a bus subscriber
        "repro.experiments.runner.build_network",
    ):
        assert name in wrapped, name
    assert not any(name.startswith(("Simulator.", "BucketSimulator.",
                                    "HeapSimulator.")) for name in wrapped)


def doctor(monkeypatch, workload: str, change) -> None:
    """Make every repetition return one real tiny record, altered by
    ``change``."""
    record, error = run.child(workload, 1, tiny=True)
    assert record is not None, error
    change(record)
    monkeypatch.setattr(run, "child", lambda *args, **kwargs: (record, ""))


def test_a_wrong_digest_counts_every_run_as_failed(monkeypatch, capsys):
    doctor(monkeypatch, "param_sweep",
           lambda record: record.update(digest="0" * 64))
    assert run.main(["--workload", "param_sweep", "--seed", "33",
                     "--seconds", "0.1"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] is False
    assert out["attempted"] > 0 and out["failed"] == out["attempted"]


def test_an_incomplete_run_counts_as_failed(monkeypatch, capsys):
    doctor(monkeypatch, "cshift_cm5",
           lambda record: record["points"][0].update(completed=False))
    assert run.main(["--workload", "cshift_cm5", "--seed", "1",
                     "--seconds", "0.1", "--tiny"]) == 0
    captured = capsys.readouterr()
    out = json.loads(captured.out.strip().splitlines()[-1])
    assert out["correct"] is False and out["failed"] == out["attempted"]
    assert "completed=False" in captured.err


def test_a_seed_without_a_pin_fails_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "load_pins", lambda: {})
    assert run.main(["--workload", "heavy_fattree", "--seed", "1",
                     "--seconds", "0.1"]) == 2
    assert "correct" not in capsys.readouterr().out


def test_without_the_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "heavy_fattree", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
