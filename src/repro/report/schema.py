"""The unified results schema: every JSON artifact this repo archives,
as versioned dataclasses with one loader.

Before this module each producer invented its own dict shape: the bench
conftest wrote ``{"bench": ..., "data": ...}``, the sweep cache wrote
``{"spec": ..., "result": ...}``, the chaos engine wrote reproducers, the
kernel-perf bench and ``repro perf`` each wrote their own performance
blob.  The reporting layer has to read *all* of them, so the shapes live
here, in one place, stamped with ``"schema": SCHEMA_VERSION`` and a
``"kind"`` discriminator:

=========================  ==============================================
``repro-run``              one experiment's slim result (:class:`RunStats`)
``repro-bench``            one bench's archived JSON (:class:`BenchRecord`)
``repro-bench-summary``    the merged ``BENCH_summary.json``
``repro-kernel-perf``      kernel events/sec (:class:`KernelPerfRecord`)
``repro-sweep-point``      one sweep-cache entry (:class:`SweepPointRecord`)
``repro-chaos-reproducer`` a shrunk chaos artifact (:class:`ChaosArtifact`)
``repro-history-snapshot`` one bench run's perf snapshot
``repro-sweep``            a ``repro sweep --json`` result set
``repro-campaign``         a farm run manifest (:class:`CampaignRecord`)
=========================  ==============================================

:func:`load_record` sniffs any archived document -- including every
*pre-schema* (v0) shape already on disk -- and migrates it to the current
dataclass, so old results trees keep rendering.  This module imports
nothing from the protocol stack: the simulator, the engine, the benches,
and the report generator all depend on it, never the other way around.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..result_fields import RUN_STATS_FIELDS

#: Current schema version.  Bump when a dataclass field changes meaning;
#: add a migration step in the matching ``from_dict`` when you do.
SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """An archived document does not match any known kind/version."""


def _stamp(kind: str, payload: Dict) -> Dict:
    """Prefix a payload with the schema discriminators."""
    doc = {"schema": SCHEMA_VERSION, "kind": kind}
    doc.update(payload)
    return doc


@dataclass
class RunStats:
    """One experiment's result as plain data (kind ``repro-run``).

    This is the shape the sweep cache stores, ``repro run --json`` prints,
    and :class:`BenchRecord` data cells may embed -- duck-typed from
    :class:`~repro.experiments.runner.ExperimentResult` but holding no
    live simulator objects.
    """

    network: str = ""
    nic_mode: str = ""
    num_nodes: int = 0
    cycles: int = 0
    sent: int = 0
    delivered: int = 0
    completed: bool = True
    order_violations: int = 0
    mean_network_latency: float = 0.0
    mean_total_latency: float = 0.0
    abandoned: int = 0
    stall_report: Optional[str] = None
    violations: List[Dict] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Packets delivered per 1000 cycles."""
        return 1000.0 * self.delivered / self.cycles if self.cycles else 0.0

    @classmethod
    def from_result(cls, result) -> "RunStats":
        """Slim a live ExperimentResult (duck-typed) down to data."""
        return cls(**{name: getattr(result, name) for name in RUN_STATS_FIELDS})

    def to_dict(self, stamped: bool = False) -> Dict:
        payload = {name: getattr(self, name) for name in RUN_STATS_FIELDS}
        return _stamp("repro-run", payload) if stamped else payload

    @classmethod
    def from_dict(cls, doc: Dict) -> "RunStats":
        known = {k: doc[k] for k in RUN_STATS_FIELDS if k in doc}
        return cls(**known)


@dataclass
class EngineStats:
    """A sweep engine's cache-hit ledger (embedded, never a file of its own)."""

    points: int = 0
    cache_hits: int = 0
    executed: int = 0
    errors: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    hit_rate: float = 0.0
    wall_s: float = 0.0

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict) -> "EngineStats":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})


@dataclass
class BenchRecord:
    """One bench's archived JSON (kind ``repro-bench``).

    ``data`` holds whatever the bench recorded (figure rows, fits,
    heatmaps); ``engine`` is the cache ledger when the bench ran through a
    :class:`~repro.experiments.SweepEngine`.  v0 files (no ``schema`` key,
    engine stats buried inside ``data``) migrate transparently.
    """

    bench: str
    bench_cycles: int = 0
    bench_seed: int = 0
    wall_seconds: float = 0.0
    data: Dict = field(default_factory=dict)
    engine: Optional[EngineStats] = None

    def to_dict(self) -> Dict:
        return _stamp("repro-bench", {
            "bench": self.bench,
            "bench_cycles": self.bench_cycles,
            "bench_seed": self.bench_seed,
            "wall_seconds": self.wall_seconds,
            "data": self.data,
            "engine": None if self.engine is None else self.engine.to_dict(),
        })

    @classmethod
    def from_dict(cls, doc: Dict) -> "BenchRecord":
        data = dict(doc.get("data") or {})
        engine = doc.get("engine")
        if engine is None and "engine" in data:
            # v0: the conftest's engine fixture recorded its stats as a
            # plain data cell; hoist it to the typed field.
            engine = data.pop("engine")
        return cls(
            bench=doc.get("bench", ""),
            bench_cycles=int(doc.get("bench_cycles", 0) or 0),
            bench_seed=int(doc.get("bench_seed", 0) or 0),
            wall_seconds=float(doc.get("wall_seconds", 0.0) or 0.0),
            data=data,
            engine=None if engine is None else EngineStats.from_dict(engine),
        )


@dataclass
class KernelRun:
    """One scheduler's measured throughput inside a kernel-perf record."""

    events: int = 0
    loop_seconds: float = 0.0
    events_per_sec: float = 0.0
    delivered: int = 0

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict) -> "KernelRun":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})


@dataclass
class KernelPerfRecord:
    """Kernel events/sec on the fixed reference workload (kind
    ``repro-kernel-perf``): what ``repro perf --json`` emits and what the
    kernel bench embeds in ``BENCH_summary.json``."""

    workload: Dict = field(default_factory=dict)
    kernels: Dict[str, KernelRun] = field(default_factory=dict)
    #: Headline scalar: the default kernel's events/sec over heap.  Older
    #: files carry whichever kernel was the default when they were written.
    speedup: float = 0.0
    #: Per-kernel events/sec over the heap baseline, one entry per
    #: non-heap kernel that ran (``{"epoch": ...}``).
    speedups: Dict[str, float] = field(default_factory=dict)
    parity_ok: bool = True

    def __post_init__(self) -> None:
        # Derive the per-kernel map when a caller (or a pre-epoch JSON
        # file) supplied only the kernel runs: keeps direct construction
        # and from_dict round-trips equal.
        if not self.speedups and "heap" in self.kernels:
            heap_eps = self.kernels["heap"].events_per_sec
            if heap_eps:
                self.speedups = {
                    name: round(run.events_per_sec / heap_eps, 3)
                    for name, run in self.kernels.items()
                    if name != "heap" and run.events_per_sec
                }

    def to_dict(self) -> Dict:
        return _stamp("repro-kernel-perf", {
            "workload": self.workload,
            "kernels": {k: run.to_dict() for k, run in self.kernels.items()},
            "speedup": self.speedup,
            "speedups": self.speedups,
            "parity_ok": self.parity_ok,
        })

    @classmethod
    def from_dict(cls, doc: Dict) -> "KernelPerfRecord":
        kernels = {
            name: KernelRun.from_dict(run)
            for name, run in (doc.get("kernels") or {}).items()
        }
        heap_eps = kernels["heap"].events_per_sec if "heap" in kernels else 0.0
        speedup = doc.get("speedup", 0.0)
        if not speedup and heap_eps and "bucket" in kernels:
            # v0 `repro perf --json` files carry no speedup field.
            speedup = round(kernels["bucket"].events_per_sec / heap_eps, 3)
        speedups = {
            k: float(v) for k, v in (doc.get("speedups") or {}).items()
        }
        return cls(
            workload=dict(doc.get("workload") or {}),
            kernels=kernels,
            speedup=speedup,
            speedups=speedups,
            parity_ok=bool(doc.get("parity_ok", True)),
        )


@dataclass
class SweepPointRecord:
    """One sweep-cache entry (kind ``repro-sweep-point``): the spec that
    ran, the code version it ran under, and the slim result."""

    spec: Dict = field(default_factory=dict)
    code_version: str = ""
    result: RunStats = field(default_factory=RunStats)

    def to_dict(self) -> Dict:
        return _stamp("repro-sweep-point", {
            "spec": self.spec,
            "code_version": self.code_version,
            "result": self.result.to_dict(),
        })

    @classmethod
    def from_dict(cls, doc: Dict) -> "SweepPointRecord":
        return cls(
            spec=dict(doc.get("spec") or {}),
            code_version=doc.get("code_version", ""),
            result=RunStats.from_dict(doc.get("result") or {}),
        )


@dataclass
class ChaosArtifact:
    """A shrunk chaos reproducer (kind ``repro-chaos-reproducer``).

    The chaos engine has always written this kind string; the schema
    wrapper adds typed access and keeps the raw document intact so
    ``repro chaos --replay`` artifacts round-trip byte-compatibly.
    """

    failure: str = ""
    detail: str = ""
    spec: Dict = field(default_factory=dict)
    trial: int = 0
    engine_seed: int = 0
    original_events: int = 0
    shrunk_events: int = 0
    shrink_probes: int = 0
    version: int = 1

    def to_dict(self) -> Dict:
        doc = _stamp("repro-chaos-reproducer", dataclasses.asdict(self))
        doc["kind"] = "repro-chaos-reproducer"
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "ChaosArtifact":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})

    @property
    def failure_class(self) -> str:
        """Coarse class for the run-health rollup (``invariant:x`` -> ``invariant``)."""
        return self.failure.split(":", 1)[0] if self.failure else "unknown"


@dataclass
class SweepRecord:
    """A whole ``repro sweep --json`` result set (kind ``repro-sweep``).

    Points are kept as plain dicts (label + the slim outcome counters):
    a sweep point's full spec lives in the cache's
    :class:`SweepPointRecord`, not here -- this envelope is what scripts
    consume instead of parsing the human table.
    """

    sweep: str = ""           # "params" | "load" | "sizes"
    network: str = ""
    points: List[Dict] = field(default_factory=list)
    engine: Optional[EngineStats] = None

    def to_dict(self) -> Dict:
        return _stamp("repro-sweep", {
            "sweep": self.sweep,
            "network": self.network,
            "points": self.points,
            "engine": None if self.engine is None else self.engine.to_dict(),
        })

    @classmethod
    def from_dict(cls, doc: Dict) -> "SweepRecord":
        engine = doc.get("engine")
        return cls(
            sweep=doc.get("sweep", ""),
            network=doc.get("network", ""),
            points=list(doc.get("points") or ()),
            engine=None if engine is None else EngineStats.from_dict(engine),
        )


#: Every per-point state a campaign manifest may carry.  ``pending`` and
#: ``running`` appear only in manifests of interrupted campaigns (a clean
#: finish settles everything); the four terminal states are what the
#: run-health rollup counts.
CAMPAIGN_POINT_STATES = (
    "pending", "running", "done", "errored", "timed_out", "poisoned",
)

#: Campaign point states that count as settled (no further attempts).
CAMPAIGN_TERMINAL_STATES = ("done", "errored", "timed_out", "poisoned")


@dataclass
class CampaignRecord:
    """A farm run manifest (kind ``repro-campaign``).

    This is the on-disk checkpoint :class:`repro.farm.RunManifest` writes
    under ``benchmarks/results/campaigns/`` after every settled point --
    the document ``repro farm --resume`` reads back.  ``specs`` holds the
    full ordered spec dicts (so a resume can verify it is continuing the
    *same* campaign by content hash); ``points`` holds one state dict per
    spec (state, attempts, worker deaths, inline slim result when done);
    ``stats`` is the farm's ledger for the completed portion.
    """

    campaign_id: str = ""
    created: str = ""
    executor: str = "pool"
    code_version: str = ""
    policy: Dict = field(default_factory=dict)
    specs: List[Dict] = field(default_factory=list)
    points: List[Dict] = field(default_factory=list)
    stats: Dict = field(default_factory=dict)

    def state_counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in CAMPAIGN_POINT_STATES}
        for point in self.points:
            counts[point.get("state", "pending")] = (
                counts.get(point.get("state", "pending"), 0) + 1
            )
        return counts

    @property
    def complete(self) -> bool:
        """Every point reached a terminal state (done or diagnosed)."""
        return all(
            point.get("state") in CAMPAIGN_TERMINAL_STATES
            for point in self.points
        )

    def to_dict(self) -> Dict:
        return _stamp("repro-campaign", {
            "campaign_id": self.campaign_id,
            "created": self.created,
            "executor": self.executor,
            "code_version": self.code_version,
            "policy": self.policy,
            "specs": self.specs,
            "points": self.points,
            "stats": self.stats,
        })

    @classmethod
    def from_dict(cls, doc: Dict) -> "CampaignRecord":
        return cls(
            campaign_id=doc.get("campaign_id", ""),
            created=doc.get("created", ""),
            executor=doc.get("executor", "pool"),
            code_version=doc.get("code_version", ""),
            policy=dict(doc.get("policy") or {}),
            specs=list(doc.get("specs") or ()),
            points=list(doc.get("points") or ()),
            stats=dict(doc.get("stats") or {}),
        )


@dataclass
class BenchSummary:
    """The merged ``BENCH_summary.json`` (kind ``repro-bench-summary``)."""

    benches: Dict[str, BenchRecord] = field(default_factory=dict)
    kernel: Optional[KernelPerfRecord] = None
    #: Farm campaigns found under ``results/campaigns/`` when the bench
    #: session closed: campaign id -> :class:`CampaignRecord` (pre-farm
    #: summaries simply carry none).
    campaigns: Dict[str, CampaignRecord] = field(default_factory=dict)

    @property
    def bench_count(self) -> int:
        return len(self.benches)

    def to_dict(self) -> Dict:
        return _stamp("repro-bench-summary", {
            "bench_count": self.bench_count,
            "benches": {
                name: self.benches[name].to_dict()
                for name in sorted(self.benches)
            },
            "kernel": None if self.kernel is None else self.kernel.to_dict(),
            "campaigns": {
                cid: self.campaigns[cid].to_dict()
                for cid in sorted(self.campaigns)
            },
        })

    @classmethod
    def from_dict(cls, doc: Dict) -> "BenchSummary":
        benches = {
            name: BenchRecord.from_dict(bench)
            for name, bench in (doc.get("benches") or {}).items()
        }
        kernel = doc.get("kernel")
        if kernel is None:
            # v0 summaries surface kernel perf only when the bench ran;
            # recover it from the bench record either way.
            bench = benches.get("test_kernel_events_per_sec")
            if bench is not None:
                kernel = bench.data.get("kernel_perf")
        return cls(
            benches=benches,
            kernel=None if kernel is None else KernelPerfRecord.from_dict(kernel),
            campaigns={
                cid: CampaignRecord.from_dict(campaign)
                for cid, campaign in (doc.get("campaigns") or {}).items()
            },
        )


@dataclass
class HistorySnapshot:
    """One bench run's perf trajectory point (kind ``repro-history-snapshot``).

    Appended to ``benchmarks/results/history/`` at the end of every bench
    session -- never overwritten -- so consecutive runs accumulate into a
    per-commit performance trajectory.
    """

    timestamp: str = ""
    git_sha: str = "unknown"
    bench_count: int = 0
    #: Benches that actually executed in the session that took the snapshot
    #: (the merged summary may carry older, stale siblings).
    session_benches: List[str] = field(default_factory=list)
    #: Per-bench wall clock from the merged summary, seconds.
    bench_wall: Dict[str, float] = field(default_factory=dict)
    #: Kernel throughput per scheduler, events/sec.
    kernel_events_per_sec: Dict[str, float] = field(default_factory=dict)
    kernel_speedup: float = 0.0
    #: Per-kernel speedup over the heap baseline (one column per
    #: registered non-heap kernel; pre-epoch snapshots carry only the
    #: bucket-vs-heap scalar above).
    kernel_speedups: Dict[str, float] = field(default_factory=dict)
    bench_cycles: int = 0
    #: Farm campaign totals at snapshot time (``campaigns``, ``points``,
    #: ``retries``, ``worker_deaths``, ``poisoned``, ``resumed``); empty
    #: for pre-farm snapshots and farm-less sessions.
    farm: Dict[str, int] = field(default_factory=dict)

    @property
    def wall_total(self) -> float:
        return sum(self.bench_wall.values())

    def to_dict(self) -> Dict:
        return _stamp("repro-history-snapshot", dataclasses.asdict(self))

    @classmethod
    def from_dict(cls, doc: Dict) -> "HistorySnapshot":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in names})


#: kind -> dataclass, for the stamped (v1+) path of :func:`load_record`.
_KINDS = {
    "repro-run": RunStats,
    "repro-bench": BenchRecord,
    "repro-bench-summary": BenchSummary,
    "repro-kernel-perf": KernelPerfRecord,
    "repro-sweep-point": SweepPointRecord,
    "repro-sweep": SweepRecord,
    "repro-chaos-reproducer": ChaosArtifact,
    "repro-history-snapshot": HistorySnapshot,
    "repro-campaign": CampaignRecord,
}


def sniff_kind(doc: Dict) -> str:
    """Classify an archived document, including every v0 shape on disk."""
    kind = doc.get("kind")
    if kind in _KINDS:
        return kind
    # v0 sniffing: the shapes pre-date the "kind" stamp.
    if "benches" in doc and "bench_count" in doc:
        return "repro-bench-summary"
    if "bench" in doc and "data" in doc:
        return "repro-bench"
    if "campaign_id" in doc and "points" in doc:
        return "repro-campaign"
    if "spec" in doc and "result" in doc:
        return "repro-sweep-point"
    if "kernels" in doc and "workload" in doc:
        return "repro-kernel-perf"
    if all(k in doc for k in ("network", "nic_mode", "delivered")):
        return "repro-run"
    raise SchemaError(
        f"unrecognised results document (kind={kind!r}, "
        f"keys={sorted(doc)[:8]})"
    )


def load_record(source: Union[str, os.PathLike, Dict]):
    """Load any archived results document into its schema dataclass.

    ``source`` is a path or an already-parsed dict.  v0 documents (no
    ``schema`` stamp) are migrated; unknown shapes raise
    :class:`SchemaError`.
    """
    if isinstance(source, (str, os.PathLike)):
        doc = json.loads(Path(source).read_text())
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemaError(f"expected a JSON object, got {type(doc).__name__}")
    version = doc.get("schema", 0)
    if version > SCHEMA_VERSION:
        raise SchemaError(
            f"document has schema {version}, newer than this code's "
            f"{SCHEMA_VERSION}; upgrade the repro package to read it"
        )
    return _KINDS[sniff_kind(doc)].from_dict(doc)


def write_record_atomic(path: Union[str, os.PathLike], record) -> None:
    """Write a record's JSON atomically (tmp + rename), creating parents.

    Atomicity matters for the artifacts that accumulate across partial
    runs (``BENCH_summary.json``, history snapshots): a crashed or
    concurrent writer must never leave a half-written file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = record.to_dict() if hasattr(record, "to_dict") else record
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=False, default=str) + "\n")
    os.replace(tmp, path)


def load_results_tree(results_dir: Union[str, os.PathLike]) -> BenchSummary:
    """Build a :class:`BenchSummary` from a results directory.

    Prefers the per-bench JSON files (the source of truth; the summary is
    derived), falling back to any benches only present in an existing
    ``BENCH_summary.json`` -- so a partially re-run tree keeps its stale
    siblings instead of losing them.
    """
    results_dir = Path(results_dir)
    summary = BenchSummary()
    summary_path = results_dir / "BENCH_summary.json"
    if summary_path.is_file():
        try:
            summary = load_record(summary_path)
        except (SchemaError, ValueError, OSError):
            summary = BenchSummary()
    for path in sorted(results_dir.glob("*.json")):
        if path.name == "BENCH_summary.json":
            continue
        try:
            record = load_record(path)
        except (SchemaError, ValueError, OSError):
            continue
        if isinstance(record, BenchRecord):
            summary.benches[path.stem] = record
    kernel_bench = summary.benches.get("test_kernel_events_per_sec")
    if kernel_bench is not None and "kernel_perf" in kernel_bench.data:
        summary.kernel = KernelPerfRecord.from_dict(
            kernel_bench.data["kernel_perf"]
        )
    # Farm campaign manifests: the farm's own directory plus the chaos
    # engine's (interrupted batches park their ledger under chaos/).
    for sub in ("campaigns", "chaos/campaigns"):
        campaign_dir = results_dir / sub
        if not campaign_dir.is_dir():
            continue
        for path in sorted(campaign_dir.glob("*.json")):
            try:
                record = load_record(path)
            except (SchemaError, ValueError, OSError):
                continue
            if isinstance(record, CampaignRecord):
                summary.campaigns[record.campaign_id] = record
    return summary
