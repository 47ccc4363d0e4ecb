"""The fault-tolerant sweep farm: pluggable executors, resumable
manifests, crash-surviving campaigns.

Built over :mod:`repro.experiments`' sweep machinery: the farm reuses
the spec/cache/point vocabulary and adds execution backends
(:mod:`~repro.farm.executors`), a per-point retry/poison policy, and an
on-disk run manifest that makes ``repro farm --resume`` safe after any
kind of death -- the worker's or the farm's own.
"""

from .engine import (
    FarmEngine,
    FarmPolicy,
    FarmStats,
    backoff_delay,
    campaign_id_for,
)
from .executors import (
    DEFAULT_EXECUTOR,
    FarmExecutor,
    PoolExecutor,
    SubprocessExecutor,
    executor_descriptions,
    executor_names,
    register_executor,
    resolve_executor,
)
from .manifest import (
    DEFAULT_CAMPAIGN_DIR,
    ManifestMismatch,
    PointState,
    RunManifest,
)

__all__ = [
    "DEFAULT_CAMPAIGN_DIR",
    "DEFAULT_EXECUTOR",
    "FarmEngine",
    "FarmExecutor",
    "FarmPolicy",
    "FarmStats",
    "ManifestMismatch",
    "PointState",
    "PoolExecutor",
    "RunManifest",
    "SubprocessExecutor",
    "backoff_delay",
    "campaign_id_for",
    "executor_descriptions",
    "executor_names",
    "register_executor",
    "resolve_executor",
]
