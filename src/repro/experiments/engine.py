"""The sweep engine: parallel, cache-backed execution of experiment specs.

The paper's evaluation is sweeps -- Table 3 parameter grids, Figure 4
machine sizes, the Section 1 operating-range curve -- and every point is an
independent simulation.  :class:`SweepEngine` exploits that: it executes an
iterable of :class:`~repro.experiments.spec.ExperimentSpec` across a
``ProcessPoolExecutor``, consults an on-disk result cache first, isolates
per-point failures (a crashed point becomes an errored :class:`SweepPoint`
instead of killing the sweep), and reports progress through a callback
and/or a :class:`repro.obs.EventBus`.

Determinism: each spec carries its own seed and the simulation derives all
randomness from it (``RngFactory``), so a point's result is identical
whether it runs serially, in a worker process, or comes from the cache --
the property the CI parallel-smoke job asserts.

Cache layout (``benchmarks/results/.cache/`` by default, override with the
``cache_dir`` argument or ``REPRO_SWEEP_CACHE``)::

    <spec content hash>-<code version prefix>.json
        {"spec": <spec dict>, "code_version": <full hash>, "result": {...}}

The key pairs the spec's content hash with a *code version* (a hash over
the package's own source files), so editing the simulator invalidates every
cached result without any manual bookkeeping.  Only portable specs (traffic
expressed as a registry :class:`~repro.traffic.TrafficSpec`) are cached or
dispatched to workers; specs holding opaque traffic callables silently run
in-process, uncached.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

from ..nic import NifdyParams
from ..obs import EventBus, EventKind
from .spec import ExperimentSpec, SpecSerializationError

#: Default on-disk cache location (relative to the invocation directory,
#: which for this repo's CLI, tests, and benches is the repo root).
DEFAULT_CACHE_DIR = Path(
    os.environ.get("REPRO_SWEEP_CACHE", "benchmarks/results/.cache")
)

# The slim result shape is shared with the results schema (the same field
# list backs the sweep cache, ``--json`` CLI output, CSV export, and the
# report), so the engine can never drift from what the loaders expect.
# It lives in a leaf module so that a run does not import the reporting
# package.
from ..result_fields import RUN_STATS_FIELDS as _RESULT_FIELDS

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """A hash over the package's own source files: the cache's second key.

    Any edit to ``repro``'s code changes this value, invalidating every
    cached sweep result at once.
    """
    global _code_version_cache
    if _code_version_cache is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


@dataclass
class SweepPoint:
    """One spec's outcome in a sweep.

    The first four fields keep the pre-engine constructor shape
    (``SweepPoint(label, params, delivered, cycles)``); the rest describe
    how the engine obtained the result.  ``cycles`` is the *actual*
    simulated cycle count (summed over constituent runs for aggregated
    points), not the requested horizon, so :attr:`throughput` stays honest
    for early-completing workloads.
    """

    label: str
    params: Optional[NifdyParams]
    delivered: int
    cycles: int
    sent: int = 0
    completed: bool = True
    order_violations: int = 0
    abandoned: int = 0
    spec_hash: Optional[str] = None
    cached: bool = False
    error: Optional[str] = None
    wall_s: float = 0.0
    stall_report: Optional[str] = None
    #: Invariant violations (dicts from
    #: :meth:`repro.validate.Violation.to_dict`) when the spec ran with
    #: ``observe.validate``; empty otherwise.
    violations: List[Dict] = field(default_factory=list)
    #: The point hit the engine's per-point wall-clock timeout (its
    #: ``error`` carries the diagnosis; never cached).
    timed_out: bool = False
    #: The worker process executing (or co-resident with) this point died
    #: hard -- ``os._exit``, segfault, OOM kill -- rather than raising.
    worker_died: bool = False
    #: The farm quarantined this point after it killed workers repeatedly
    #: (see :class:`repro.farm.FarmPolicy`); never set by the bare engine.
    poisoned: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def throughput(self) -> float:
        return 1000.0 * self.delivered / self.cycles if self.cycles else 0.0


@dataclass
class SweepStats:
    """What one engine (cumulatively) did: the cache-hit ledger."""

    points: int = 0
    cache_hits: int = 0
    executed: int = 0
    errors: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    wall_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.points if self.points else 0.0

    def as_dict(self) -> Dict:
        return {
            "points": self.points,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "hit_rate": round(self.hit_rate, 4),
            "wall_s": round(self.wall_s, 3),
        }


class ResultCache:
    """Content-addressed JSON files: spec hash + code version -> result."""

    def __init__(self, directory: Path = DEFAULT_CACHE_DIR):
        self.directory = Path(directory)

    def _path(self, spec: ExperimentSpec) -> Path:
        return self.directory / f"{spec.content_hash()}-{code_version()[:12]}.json"

    def get(self, spec: ExperimentSpec) -> Optional[Dict]:
        path = self._path(spec)
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return doc.get("result")

    def put(self, spec: ExperimentSpec, result: Dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        doc = {
            "spec": spec.to_dict(),
            "code_version": code_version(),
            "result": result,
        }
        path = self._path(spec)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)  # atomic: concurrent sweeps race benignly


def _slim_result(result) -> Dict:
    """The picklable, cacheable subset of an ExperimentResult."""
    return {name: getattr(result, name) for name in _RESULT_FIELDS}


def _execute_spec_dict(spec_dict: Dict) -> Dict:
    """Worker entry point: rebuild the spec from data, run it, return the
    slim result (or a traceback).  Takes/returns only plain data so it
    crosses process boundaries under any start method."""
    t0 = time.perf_counter()
    try:
        spec = ExperimentSpec.from_dict(spec_dict)
        result = _execute_in_process(spec)
    except Exception:  # noqa: BLE001 - isolation is the point
        result = {"error": traceback.format_exc()}
    result.setdefault("wall_s", time.perf_counter() - t0)
    return result


def _execute_in_process(spec: ExperimentSpec) -> Dict:
    from .runner import run_experiment  # deferred: avoids an import cycle

    t0 = time.perf_counter()
    try:
        result = _slim_result(run_experiment(spec))
    except Exception:  # noqa: BLE001 - isolation is the point
        result = {"error": traceback.format_exc()}
    result["wall_s"] = time.perf_counter() - t0
    return result


def _point_from(spec: ExperimentSpec, result: Dict, *, cached: bool) -> SweepPoint:
    label = spec.label or spec.describe()
    wall_s = result.get("wall_s", 0.0)
    if "error" in result:
        return SweepPoint(
            label, spec.nifdy_params, 0, 0, spec_hash=_safe_hash(spec),
            completed=False, error=result["error"], wall_s=wall_s,
            timed_out=bool(result.get("timed_out")),
            worker_died=bool(result.get("worker_died")),
            poisoned=bool(result.get("poisoned")),
        )
    return SweepPoint(
        label,
        spec.nifdy_params,
        result["delivered"],
        result["cycles"],
        sent=result["sent"],
        completed=result["completed"],
        order_violations=result["order_violations"],
        abandoned=result["abandoned"],
        spec_hash=_safe_hash(spec),
        cached=cached,
        wall_s=wall_s,
        stall_report=result.get("stall_report"),
        violations=list(result.get("violations") or ()),
    )


def _safe_hash(spec: ExperimentSpec) -> Optional[str]:
    try:
        return spec.content_hash()
    except SpecSerializationError:
        return None


class SweepEngine:
    """Executes iterables of specs: cache first, then a process pool.

    ``jobs``: worker processes (``<= 1`` runs serially in-process, which is
    also the fallback for non-portable specs).  ``cache``: consult/populate
    the on-disk result cache.  ``progress``: ``(done, total, point) ->
    None`` called after every point resolves.  ``bus``: an optional
    :class:`repro.obs.EventBus` receiving one ``sweep_point`` /
    ``sweep_cache_hit`` / ``sweep_error`` event per point, so sweep
    progress rides the same instrumentation rails as everything else.

    ``point_timeout`` (seconds, default off) bounds each point's wall
    clock: a hung or crashed worker degrades to an errored
    :class:`SweepPoint` carrying a diagnosis (``timed_out=True``, never
    cached) instead of wedging the sweep; points merely *queued* behind
    the hung one are rescued into a fresh pool.  Enforcing a timeout
    requires a worker process, so portable specs go through the pool even
    at ``jobs=1``; non-portable specs still run in-process, untimed.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: bool = True,
        cache_dir: Optional[Path] = None,
        progress: Optional[Callable[[int, int, SweepPoint], None]] = None,
        bus: Optional[EventBus] = None,
        point_timeout: Optional[float] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = ResultCache(cache_dir or DEFAULT_CACHE_DIR) if cache else None
        self.progress = progress
        self.bus = bus
        self.point_timeout = point_timeout
        self.stats = SweepStats()

    # ----------------------------------------------------------------- run
    def run(self, specs: Iterable[ExperimentSpec]) -> List[SweepPoint]:
        """Execute every spec; results come back in input order."""
        specs = list(specs)
        started = time.perf_counter()
        total = len(specs)
        points: List[Optional[SweepPoint]] = [None] * total
        done = 0

        def settle(index: int, point: SweepPoint) -> None:
            nonlocal done
            points[index] = point
            done += 1
            self.stats.points += 1
            if point.error is not None:
                self.stats.errors += 1
                if point.timed_out:
                    self.stats.timeouts += 1
                if point.worker_died:
                    self.stats.worker_deaths += 1
            elif point.cached:
                self.stats.cache_hits += 1
            else:
                self.stats.executed += 1
            if self.bus is not None:
                kind = (
                    EventKind.SWEEP_ERROR if point.error is not None
                    else EventKind.SWEEP_CACHE_HIT if point.cached
                    else EventKind.SWEEP_POINT
                )
                self.bus.emit(done, kind, -1, info=point.label)
            if self.progress is not None:
                self.progress(done, total, point)

        pending: List[int] = []  # indices that need actual execution
        for index, spec in enumerate(specs):
            if self.cache is not None and self._cacheable(spec):
                hit = self.cache.get(spec)
                if hit is not None:
                    settle(index, _point_from(spec, hit, cached=True))
                    continue
            pending.append(index)

        if self.jobs > 1 or self.point_timeout is not None:
            self._run_parallel(specs, pending, settle)
        else:
            for index in pending:
                self._run_one(specs[index], index, settle)

        self.stats.wall_s += time.perf_counter() - started
        return [p for p in points if p is not None]

    # ------------------------------------------------------------- internals
    @staticmethod
    def _cacheable(spec: ExperimentSpec) -> bool:
        """Portable AND safe to share a cache entry.  ``observe`` is
        excluded from :meth:`~ExperimentSpec.content_hash` (instrumentation
        does not change results), but a *validated* run's result carries
        ``violations`` that an unvalidated run of the same spec would not --
        so validated runs bypass the cache in both directions."""
        if not spec.portable:
            return False
        return spec.observe is None or not spec.observe.validate

    def _finish_executed(self, spec: ExperimentSpec, result: Dict,
                         index: int, settle) -> None:
        if (
            self.cache is not None and self._cacheable(spec)
            and "error" not in result
        ):
            self.cache.put(spec, result)
        settle(index, _point_from(spec, result, cached=False))

    def _run_one(self, spec: ExperimentSpec, index: int, settle) -> None:
        self._finish_executed(spec, _execute_in_process(spec), index, settle)

    def _run_parallel(self, specs, pending, settle) -> None:
        portable = [i for i in pending if specs[i].portable]
        local = [i for i in pending if not specs[i].portable]
        while portable:
            # Each generation settles everything except points that were
            # still queued when a timeout forced the pool down; those are
            # rescued into a fresh pool.  Every generation with survivors
            # settles at least one point, so this terminates.
            portable = self._run_pool(specs, portable, settle)
        for i in local:  # opaque traffic callables cannot cross processes
            self._run_one(specs[i], i, settle)

    def _run_pool(self, specs, indices, settle) -> List[int]:
        """One pool generation.  The first timeout or pool break settles
        ONLY the point we were waiting on; every other unresolved future is
        rescued into the next generation, because the executor's call-queue
        prefetch marks queued futures as running, making "starved behind
        the failure" indistinguishable from "genuinely failing" here.

        * Timeout: the waited point is provably stuck (it had the full
          bound); it settles ``timed_out`` and the stuck worker is
          terminated.
        * :class:`BrokenProcessPool` (a worker died hard -- ``os._exit``,
          segfault, OOM kill -- which poisons the *whole* executor): the
          waited point settles errored with a ``worker_died`` marker and is
          never cached.  With several workers the victim can be collateral
          rather than the killer, but a rescued killer breaks its own next
          generation and settles there, so attribution converges.

        Either way a generation with survivors settles at least one point,
        so the rescue loop terminates."""
        # Imported here, the only place that uses them: a serial sweep or a
        # single run never starts a pool and should not pay for loading one.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        rescue: List[int] = []
        hung = False       # a worker is wedged and must be terminated
        degraded = False   # this pool is done taking new results
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(indices)))
        try:
            futures = {}
            for i in indices:
                try:
                    futures[i] = pool.submit(
                        _execute_spec_dict, specs[i].to_dict()
                    )
                except Exception:  # noqa: BLE001 - pool broke mid-submit
                    if not futures:
                        raise  # a fresh pool that cannot start at all
                    rescue.append(i)  # the break settles via a wait below
            for i, future in futures.items():
                if degraded:
                    if future.done() and not future.cancelled():
                        try:  # finished before the failure was detected
                            result = future.result(timeout=0)
                        except BrokenProcessPool:
                            rescue.append(i)
                            continue
                        except Exception:  # noqa: BLE001
                            result = {"error": traceback.format_exc()}
                    else:
                        future.cancel()
                        rescue.append(i)
                        continue
                else:
                    try:
                        result = future.result(timeout=self.point_timeout)
                    except FuturesTimeout:
                        hung = degraded = True
                        result = {
                            "error": (
                                f"point exceeded the {self.point_timeout}s "
                                "wall-clock timeout (worker hung or "
                                "crashed); worker terminated, point not "
                                "cached"
                            ),
                            "timed_out": True,
                        }
                    except BrokenProcessPool:
                        degraded = True
                        result = {
                            "error": (
                                "worker process died abruptly while this "
                                "point was in flight (hard exit, segfault, "
                                "or OOM kill); queued points rescued into "
                                "a fresh pool, point not cached"
                            ),
                            "worker_died": True,
                        }
                    except Exception:  # noqa: BLE001 - pool/pickling failures
                        result = {"error": traceback.format_exc()}
                self._finish_executed(specs[i], result, i, settle)
        finally:
            if hung:
                # The stuck worker would otherwise block shutdown (and
                # interpreter exit) indefinitely.
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.terminate()
            pool.shutdown(wait=not degraded, cancel_futures=degraded)
        return rescue
