"""A run imports only what it executes.

Graph analysis, numpy, the process pool, the report generator, the
campaign ledger and the analysis models cost import time a run never
uses.  Each case runs in a fresh interpreter and fails when any of them
was loaded, so an eager import added later shows up here instead of as
slower start-up.  A pool worker and a parallel sweep get the same
treatment for what they do not use: the report package and the run
manifest.
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
    "repro.report.claims",
    "repro.experiments.manifest",
    "repro.experiments.pool",
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


#: One point through the pool worker's entry point, ``_execute_spec_dict``,
#: fed the plain spec dict a pool worker unpickles.
WORKER = (
    "from repro.experiments.engine import _execute_spec_dict\n"
    "from repro.experiments.spec import ExperimentSpec\n"
    "from repro.experiments.workloads import heavy_synthetic\n"
    "spec = ExperimentSpec(network='fattree', traffic=heavy_synthetic(),"
    " num_nodes=16, nic_mode='nifdy', run_cycles=300, seed=1)\n"
    "result = _execute_spec_dict(spec.to_dict())\n"
    "assert result['delivered'] > 0, result\n"
)

#: What the worker must not load: the report package and its claim table,
#: the manifest, the pool that starts it, and the process pool machinery.
OFF_WORKER_PATH = (
    "concurrent.futures.process",
    "repro.report",
    "repro.report.claims",
    "repro.experiments.manifest",
    "repro.experiments.pool",
)

PARALLEL_SWEEP = (
    "from repro.experiments import SweepEngine, nifdy_param_specs\n"
    "from repro.nic import NifdyParams\n"
    "specs = nifdy_param_specs('fattree', [NifdyParams(opt_size=2,"
    " pool_size=4)], num_nodes=16, run_cycles=300, seed=1,"
    " combine_light_and_heavy=False)\n"
    "points = SweepEngine(jobs=2, cache=False).run(specs)\n"
    "assert all(p.ok for p in points), [p.error for p in points]\n"
)

#: A sweep without a manifest writes no ledger, so it needs neither.
OFF_SWEEP_PATH = ("repro.report", "repro.experiments.manifest")


def _loaded_after(program: str, names=OFF_RUN_PATH):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", program + REPORT_LOADED.format(names=names)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("program", [EXPERIMENT, CLI_RUN],
                         ids=["run_experiment", "cli_run"])
def test_run_path_imports(program):
    assert _loaded_after(program) == []


def test_worker_imports_only_the_run_path():
    assert _loaded_after(WORKER, OFF_WORKER_PATH) == []


def test_parallel_sweep_skips_report_and_manifest():
    assert _loaded_after(PARALLEL_SWEEP, OFF_SWEEP_PATH) == []
