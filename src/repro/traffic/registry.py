"""Named, picklable traffic factories.

The experiment API describes a run as plain data (:class:`ExperimentSpec`),
which means the traffic load must be expressible as data too: a *registry
name* plus a *config dataclass*.  A :class:`TrafficSpec` carries exactly
that pair, and it is the only traffic an ``ExperimentSpec`` accepts.  It
pickles across process boundaries, serialises to JSON, and hashes stably,
which is what the parallel sweep engine and its result cache key on; the
runner calls it as ``(node, num_nodes, rng_factory, exploit_inorder) ->
driver`` to build each node's driver.

Every driver shipped with the package registers itself here
(``register_traffic``); user code can register its own drivers the same
way and then use them by name in specs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .allreduce import AllReduceConfig, AllReduceDriver
from .crashpoint import CrashPointConfig, CrashPointDriver
from .cshift import CShiftConfig, CShiftDriver
from .em3d import Em3dConfig, Em3dDriver
from .hotspot import HotSpotConfig, HotSpotDriver
from .incast import IncastConfig, IncastDriver, RpcDriver, RpcFanoutConfig
from .pairstream import PairStreamConfig, PairStreamDriver
from .radix_sort import RadixSortConfig, RadixSortDriver
from .synthetic import SyntheticConfig, SyntheticDriver


class TrafficEntry(NamedTuple):
    """One registered traffic family."""

    config_cls: type
    #: ``() -> config``: the default configuration when a spec carries none.
    default_config: Callable[[], object]
    #: ``(node, num_nodes, config, rng_factory, exploit) -> driver``.
    builder: Callable


_REGISTRY: Dict[str, TrafficEntry] = {}


def register_traffic(
    name: str,
    config_cls: type,
    builder: Callable,
    default_config: Optional[Callable[[], object]] = None,
) -> None:
    """Register a traffic family under ``name`` (overwrites silently so
    tests can re-register stubs)."""
    _REGISTRY[name] = TrafficEntry(
        config_cls, default_config or config_cls, builder
    )


def traffic_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def traffic_entry(name: str) -> TrafficEntry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown traffic {name!r}; registered: {', '.join(traffic_names())}"
        ) from None


def _config_to_dict(config) -> Dict:
    data = dataclasses.asdict(config)
    # JSON has no tuples; canonicalise so to_dict(from_dict(d)) == d.
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in data.items()
    }


def _config_from_dict(config_cls: type, data: Dict):
    """Rebuild a config dataclass, restoring tuple-typed fields that JSON
    flattened to lists (e.g. ``SyntheticConfig.ignore_cycles``)."""
    kwargs = dict(data)
    for f in dataclasses.fields(config_cls):
        if f.name in kwargs and isinstance(kwargs[f.name], list) and isinstance(
            f.default, tuple
        ):
            kwargs[f.name] = tuple(kwargs[f.name])
    return config_cls(**kwargs)


@dataclass(frozen=True)
class TrafficSpec:
    """A traffic load as data: registry ``name`` + optional ``config``.

    Calling it as ``(node, num_nodes, rng_factory, exploit)`` builds that
    node's driver from the registered builder.
    """

    name: str
    config: Optional[object] = None

    def __post_init__(self) -> None:
        entry = traffic_entry(self.name)  # fail fast on unknown names
        if self.config is not None and not isinstance(
            self.config, entry.config_cls
        ):
            raise TypeError(
                f"traffic {self.name!r} expects a {entry.config_cls.__name__}, "
                f"got {type(self.config).__name__}"
            )

    def resolved_config(self):
        entry = traffic_entry(self.name)
        return self.config if self.config is not None else entry.default_config()

    def __call__(self, node: int, num_nodes: int, rng_factory, exploit: bool):
        entry = traffic_entry(self.name)
        return entry.builder(
            node, num_nodes, self.resolved_config(), rng_factory, exploit
        )

    # -------------------------------------------------------- serialisation
    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "config": None if self.config is None
            else _config_to_dict(self.config),
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "TrafficSpec":
        entry = traffic_entry(data["name"])
        config = data.get("config")
        return cls(
            data["name"],
            None if config is None
            else _config_from_dict(entry.config_cls, config),
        )


# --------------------------------------------------------------------------
# Built-in registrations (the paper's workloads).
# --------------------------------------------------------------------------

register_traffic(
    "heavy", SyntheticConfig,
    lambda node, n, cfg, rngf, exploit: SyntheticDriver(node, n, cfg, rngf, exploit),
    default_config=SyntheticConfig.heavy_traffic,
)
register_traffic(
    "light", SyntheticConfig,
    lambda node, n, cfg, rngf, exploit: SyntheticDriver(node, n, cfg, rngf, exploit),
    default_config=SyntheticConfig.light_traffic,
)
register_traffic(
    "cshift", CShiftConfig,
    lambda node, n, cfg, rngf, exploit: CShiftDriver(node, n, cfg, exploit),
)
register_traffic(
    "em3d", Em3dConfig,
    lambda node, n, cfg, rngf, exploit: Em3dDriver(node, n, cfg, rngf, exploit),
    default_config=Em3dConfig.light_communication,
)
register_traffic(
    "radix", RadixSortConfig,
    lambda node, n, cfg, rngf, exploit: RadixSortDriver(node, n, cfg, rngf, exploit),
)
register_traffic(
    "hotspot", HotSpotConfig,
    lambda node, n, cfg, rngf, exploit: HotSpotDriver(node, n, cfg, rngf, exploit),
)
register_traffic(
    "pairstream", PairStreamConfig,
    lambda node, n, cfg, rngf, exploit: PairStreamDriver(node, n, cfg, rngf, exploit),
)
register_traffic(
    "incast", IncastConfig,
    lambda node, n, cfg, rngf, exploit: IncastDriver(node, n, cfg, rngf, exploit),
)
register_traffic(
    "rpc", RpcFanoutConfig,
    lambda node, n, cfg, rngf, exploit: RpcDriver(node, n, cfg, rngf, exploit),
)
register_traffic(
    "allreduce", AllReduceConfig,
    lambda node, n, cfg, rngf, exploit: AllReduceDriver(node, n, cfg, exploit),
)
register_traffic(
    "crashpoint", CrashPointConfig,
    lambda node, n, cfg, rngf, exploit: CrashPointDriver(node, n, cfg, rngf, exploit),
)
