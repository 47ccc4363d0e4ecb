"""Experiment harness: specs, tuned parameters, the runner, and the engine."""

from .configs import BEST_PARAMS, best_params
from .engine import (
    FarmPolicy,
    ResultCache,
    SweepEngine,
    SweepPoint,
    SweepStats,
    code_version,
)
from .runner import ExperimentResult, TrafficFactory, run_experiment
from .spec import ExperimentSpec, SpecSerializationError
from .sweep import (
    REORDER_VARIANT_MODES,
    default_param_grid,
    machine_size_specs,
    nifdy_param_specs,
    offered_load_specs,
    reorder_variant_specs,
)
from .workloads import (
    allreduce,
    cshift,
    em3d,
    heavy_synthetic,
    hotspot,
    incast,
    light_synthetic,
    perf_reference_spec,
    radix_sort,
    rpc_fanout,
)

__all__ = [
    "BEST_PARAMS",
    "REORDER_VARIANT_MODES",
    "ExperimentResult",
    "ExperimentSpec",
    "FarmPolicy",
    "ResultCache",
    "SpecSerializationError",
    "SweepEngine",
    "SweepPoint",
    "SweepStats",
    "TrafficFactory",
    "allreduce",
    "best_params",
    "code_version",
    "cshift",
    "default_param_grid",
    "em3d",
    "heavy_synthetic",
    "hotspot",
    "incast",
    "light_synthetic",
    "machine_size_specs",
    "nifdy_param_specs",
    "offered_load_specs",
    "perf_reference_spec",
    "radix_sort",
    "reorder_variant_specs",
    "rpc_fanout",
    "run_experiment",
]
