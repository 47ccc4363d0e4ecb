"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.traffic import traffic_names


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fattree" in out
        assert "nifdy" in out
        (line,) = [l for l in out.splitlines() if l.startswith("traffic loads:")]
        printed = tuple(line.split(":", 1)[1].strip().split(", "))
        assert printed == traffic_names()

    def test_run_requires_network(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_unknown_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--network", "hypercube"])


class TestRun:
    def test_run_heavy_synthetic(self, capsys):
        code = main([
            "run", "--network", "mesh2d", "--traffic", "heavy",
            "--nic", "nifdy", "--nodes", "16", "--cycles", "4000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "packets delivered" in out
        assert "order violations : 0" in out

    def test_run_to_completion_workload(self, capsys):
        code = main([
            "run", "--network", "fattree", "--traffic", "radix",
            "--nic", "plain", "--nodes", "16", "--max-cycles", "20000000",
        ])
        assert code == 0
        assert "cycles simulated" in capsys.readouterr().out

    def test_run_with_custom_params(self, capsys):
        code = main([
            "run", "--network", "mesh2d", "--nodes", "16", "--cycles", "3000",
            "--opt", "2", "--window", "4",
        ])
        assert code == 0

    def test_run_lossy(self, capsys):
        code = main([
            "run", "--network", "fattree", "--traffic", "heavy",
            "--nodes", "16", "--cycles", "4000", "--drop", "0.05",
        ])
        assert code == 0

    def test_crashpoint_says_why_it_exits(self):
        # The workload hard-exits its process (os._exit) on purpose, so it
        # must say so on stderr before it dies.
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--network", "fattree",
             "--traffic", "crashpoint", "--nodes", "16"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 86
        (line,) = out.stderr.splitlines()
        assert line.startswith("crashpoint: ")
        assert "after 2 packet(s)" in line
        assert "kill sweep pool workers" in line


class TestAnalysisCommands:
    def test_characterize(self, capsys):
        assert main(["characterize", "--network", "mesh2d", "--nodes", "16"]) == 0
        out = capsys.readouterr().out
        assert "bisection" in out
        assert "T_lat(d)" in out

    def test_advise(self, capsys):
        assert main(["advise", "--network", "mesh2d", "--nodes", "16"]) == 0
        out = capsys.readouterr().out
        assert "recommended" in out
        assert "O=" in out
