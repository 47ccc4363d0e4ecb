"""A run imports only what it executes.

Graph analysis, numpy, the process pool, the report generator, the farm
and the analysis models cost import time a run never uses.  Each case
runs in a fresh interpreter and fails when any of them was loaded, so an
eager import added later shows up here instead of as slower start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

OFF_RUN_PATH = (
    "networkx",
    "numpy",
    "concurrent.futures.process",
    "repro.report",
    "repro.farm",
    "repro.analysis",
)

REPORT_LOADED = (
    "import json, sys\n"
    "print(json.dumps(sorted(m for m in {names!r} if m in sys.modules)))\n"
)

EXPERIMENT = (
    "from repro.experiments import ExperimentSpec, heavy_synthetic,"
    " run_experiment\n"
    "result = run_experiment(ExperimentSpec(network='fattree',"
    " traffic=heavy_synthetic(), num_nodes=16, nic_mode='nifdy',"
    " run_cycles=300, seed=1))\n"
    "assert result.delivered > 0, result.delivered\n"
)

CLI_RUN = (
    "import contextlib, io, runpy, sys\n"
    "sys.argv = ['repro', 'run', '--network', 'fattree', '--traffic',"
    " 'heavy', '--nic', 'nifdy', '--nodes', '16', '--cycles', '300']\n"
    "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
    "    try:\n"
    "        runpy.run_module('repro', run_name='__main__')\n"
    "    except SystemExit as exc:\n"
    "        assert exc.code == 0, exc.code\n"
    "assert 'delivered' in out.getvalue(), out.getvalue()\n"
)


def _loaded_after(program: str):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", program + REPORT_LOADED.format(names=OFF_RUN_PATH)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("program", [EXPERIMENT, CLI_RUN],
                         ids=["run_experiment", "cli_run"])
def test_run_path_imports(program):
    assert _loaded_after(program) == []
