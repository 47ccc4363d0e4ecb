"""The sweep engine: cached, retrying, resumable execution of experiment specs.

The paper's evaluation is sweeps -- Table 3 parameter grids, Figure 4
machine sizes, the Section 1 operating-range curve -- and every point is an
independent simulation.  :class:`SweepEngine` is the one engine that runs
them.  Each point goes through three stages:

1. **Cache.**  An on-disk result cache answers points it has seen under
   the current code.
2. **Resume ledger.**  With a ``campaign_dir``, every :meth:`SweepEngine.run`
   is a *campaign* with a :class:`~repro.experiments.manifest.RunManifest`
   ledger at ``<campaign_dir>/<campaign id>.json``.  The id is a hash of
   the specs, so running the same grid again finds the same ledger:
   points an earlier (interrupted or finished) run settled come from it,
   and every newly settled point is checkpointed into it.  Without a
   ``campaign_dir``, no ledger is written.
3. **Execution.**  The rest run in-process, or in the shared worker pool
   (:class:`~repro.experiments.pool.PoolExecutor`) when the sweep needs a
   worker process: for parallelism, for a watchdog, or to survive a
   worker's death.  A :class:`FarmPolicy` decides whether a failed
   attempt is retried, after what backoff, and when a point that keeps
   killing its worker is quarantined as ``poisoned``.

A failed point becomes an errored :class:`SweepPoint` instead of killing
the sweep, and progress is reported through a callback and/or a
:class:`repro.obs.EventBus`.

Determinism: each spec carries its own seed and the simulation derives all
randomness from it (``RngFactory``), so a point's result is identical
whether it runs serially, in a worker process, or comes from the cache or
a ledger -- the property the CI sweep-smoke and farm-smoke jobs assert.

Cache layout (``benchmarks/results/.cache/`` by default, override with the
``cache_dir`` argument or ``REPRO_SWEEP_CACHE``)::

    <spec content hash>-<code version prefix>.json
        {"spec": <spec dict>, "code_version": <full hash>, "result": {...}}

The key pairs the spec's content hash with a *code version* (a hash over
the package's own source files), so editing the simulator invalidates every
cached result without any manual bookkeeping.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional

from ..atomic_write import write_text_atomic
from ..nic import NifdyParams
from ..obs import EventBus, EventKind
from .spec import ExperimentSpec

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
    #: Settled by an earlier run of the same campaign and rebuilt from its
    #: ledger: neither executed now nor read from the result cache.
    resumed: bool = False
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
    #: The engine quarantined this point after it killed workers
    #: repeatedly (see :class:`FarmPolicy`); needs a retry budget.
    poisoned: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def throughput(self) -> float:
        return 1000.0 * self.delivered / self.cycles if self.cycles else 0.0


@dataclass
class SweepStats:
    """What one engine (cumulatively) did.

    ``resumed`` counts points settled from a manifest; ``worker_deaths``
    counts worker-killing *attempts* (hard deaths and watchdog timeouts),
    so a retried point can contribute more than one.
    """

    points: int = 0
    cache_hits: int = 0
    executed: int = 0
    resumed: int = 0
    errors: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    retries: int = 0
    poisoned: int = 0
    wall_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.points if self.points else 0.0

    def as_dict(self) -> Dict:
        return {
            "points": self.points,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "resumed": self.resumed,
            "errors": self.errors,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "retries": self.retries,
            "poisoned": self.poisoned,
            "hit_rate": round(self.hit_rate, 4),
            "wall_s": round(self.wall_s, 3),
        }


@dataclass
class FarmPolicy:
    """Retry/poison/backoff knobs of one sweep.

    ``retries`` bounds *extra* attempts per point (total attempts =
    ``retries + 1``).  ``poison_after`` is the worker-death count that
    quarantines a point as ``poisoned``.  Unset, it is the whole attempt
    budget -- a point that kills a worker on every attempt is quarantined
    exactly when its budget runs out -- but only if that budget included
    a retry: with ``retries=0`` a hang stays ``timed_out`` and a death
    stays ``worker_died``.  ``retry_errors`` opts plain (deterministic)
    in-point exceptions into the retry loop -- off by default, because
    retrying a deterministic failure only burns wall clock.
    """

    retries: int = 2
    poison_after: Optional[int] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    backoff_jitter: float = 0.5
    seed: int = 0
    retry_errors: bool = False

    @property
    def max_attempts(self) -> int:
        return 1 + max(0, self.retries)

    @property
    def poison_threshold(self) -> Optional[int]:
        """Worker deaths that quarantine a point; ``None``: never."""
        if self.poison_after is not None:
            return max(1, self.poison_after)
        return self.max_attempts if self.retries > 0 else None

    def as_dict(self) -> Dict:
        return {
            "retries": self.retries,
            "poison_after": self.poison_after,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
            "backoff_jitter": self.backoff_jitter,
            "seed": self.seed,
            "retry_errors": self.retry_errors,
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "FarmPolicy":
        names = {f for f in cls.__dataclass_fields__}  # noqa: C401
        return cls(**{k: v for k, v in doc.items() if k in names})


def backoff_delay(policy: FarmPolicy, index: int, attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1-based) of point
    ``index``: capped exponential with deterministic downward jitter.

    The jitter RNG is seeded from ``(policy.seed, index, attempt)``
    alone, so the schedule is a pure function of the campaign -- an
    interrupted-and-resumed sweep backs off exactly like an uninterrupted
    one, and distinct points never thundering-herd the machine.
    """
    if attempt <= 0:
        return 0.0
    base = policy.backoff_base * (policy.backoff_factor ** (attempt - 1))
    delay = min(policy.backoff_max, base)
    rng = random.Random(policy.seed * 1_000_003 + index * 8191 + attempt)
    return delay * (1.0 - policy.backoff_jitter * rng.random())


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
        doc = {
            "spec": spec.to_dict(),
            "code_version": code_version(),
            "result": result,
        }
        # Atomic with a per-writer temp file: concurrent writers of one
        # entry (a repeated spec, two sessions) race benignly.
        write_text_atomic(
            self._path(spec), json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )


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
            label, spec.nifdy_params, 0, 0, spec_hash=spec.content_hash(),
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
        spec_hash=spec.content_hash(),
        cached=cached,
        wall_s=wall_s,
        stall_report=result.get("stall_report"),
        violations=list(result.get("violations") or ()),
    )


def _from_ledger(spec: ExperimentSpec, ps) -> SweepPoint:
    """Rebuild a settled point from its manifest entry."""
    if ps.state == "done" and ps.result is not None:
        result = ps.result
    else:
        result = {
            "error": ps.error or f"point settled as {ps.state}",
            "timed_out": ps.state == "timed_out",
            "poisoned": ps.state == "poisoned",
            "worker_died": ps.worker_deaths > 0,
        }
    point = _point_from(spec, result, cached=False)
    point.resumed = True
    return point


class SweepEngine:
    """Executes iterables of specs: cache, then resume ledger, then a worker.

    ``jobs``: points in flight at once.  ``cache``/``cache_dir``: consult
    and populate the on-disk result cache.  ``progress``: ``(done, total,
    point) -> None`` called after every point settles.  ``bus``: an
    optional :class:`repro.obs.EventBus` receiving one ``sweep_point`` /
    ``sweep_cache_hit`` / ``sweep_error`` event per settled point, plus
    ``farm_dispatch`` per attempt and ``farm_retry`` / ``farm_poison`` /
    ``farm_resume`` as they happen.

    Points run in the worker pool when the sweep needs a worker process:
    ``jobs > 1``, a ``point_timeout``, a ``campaign_dir``, or a
    ``policy`` with retries (a retry budget exists to survive worker
    deaths).  Otherwise they run in-process, one at a time.

    ``point_timeout`` (seconds, default off) is the per-point liveness
    watchdog: a hung worker is killed and the point settles ``timed_out``
    (never cached) instead of wedging the sweep.

    ``policy``: a :class:`FarmPolicy`; unset means no retries.
    ``campaign_dir``: where each :meth:`run` keeps its ledger (see the
    module docstring).  A ledger resumes when it holds the same specs and
    was written by the same code (:func:`code_version`), finished or not;
    otherwise the campaign starts over at the same path.  Unset, nothing
    is written.  ``sleep`` is injectable so tests can assert the backoff
    schedule without waiting it out.

    On :class:`KeyboardInterrupt` the engine reverts in-flight points to
    ``pending`` (the interrupted attempt does not count against their
    budget), flushes a final checkpoint, kills the pool's workers,
    and re-raises for the CLI to exit 130.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: bool = True,
        cache_dir: Optional[Path] = None,
        progress: Optional[Callable[[int, int, SweepPoint], None]] = None,
        bus: Optional[EventBus] = None,
        point_timeout: Optional[float] = None,
        policy: Optional[FarmPolicy] = None,
        campaign_dir: Optional[Path] = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = ResultCache(cache_dir or DEFAULT_CACHE_DIR) if cache else None
        self.progress = progress
        self.bus = bus
        self.point_timeout = point_timeout
        self.policy = policy or FarmPolicy(retries=0)
        self.campaign_dir = Path(campaign_dir) if campaign_dir is not None else None
        #: The worker pool; ``None`` runs every point in-process.
        self.pool = None
        if (self.jobs > 1 or point_timeout is not None
                or self.campaign_dir is not None or self.policy.retries > 0):
            from .pool import PoolExecutor

            self.pool = PoolExecutor()
        #: The ledger of the latest :meth:`run`; ``None`` without a
        #: ``campaign_dir``.
        self.manifest = None
        self.stats = SweepStats()
        self._sleep = sleep
        self._lock = threading.Lock()
        self._interrupt = threading.Event()

    # ----------------------------------------------------------------- run
    def run(self, specs: Iterable[ExperimentSpec]) -> List[SweepPoint]:
        """Execute (or finish) every spec; results come back in input order."""
        specs = list(specs)
        started = time.perf_counter()
        total = len(specs)
        points: List[Optional[SweepPoint]] = [None] * total
        done = 0
        manifest = self.manifest = (
            self._open_campaign(specs) if self.campaign_dir is not None else None
        )
        if manifest is not None:
            ledger = manifest.points
        else:
            # Per-point retry bookkeeping, shaped like the manifest's
            # PointState, kept in memory only.
            ledger = [
                SimpleNamespace(label=spec.label or spec.describe(),
                                state="pending", attempts=0, worker_deaths=0,
                                error=None, result=None)
                for spec in specs
            ]
        self._interrupt.clear()

        def checkpoint() -> None:
            if manifest is not None:
                stats = self.stats.as_dict()
                stats["wall_s"] = round(
                    time.perf_counter() - started + self.stats.wall_s, 3
                )
                manifest.checkpoint(stats)

        def settle(index: int, point: SweepPoint) -> None:
            """Record one settled point (thread-safe) and checkpoint."""
            nonlocal done
            with self._lock:
                points[index] = point
                done += 1
                stats = self.stats
                stats.points += 1
                if point.resumed:
                    stats.resumed += 1
                if point.error is not None:
                    stats.errors += 1
                    if point.poisoned:
                        stats.poisoned += 1
                    elif point.timed_out:
                        stats.timeouts += 1
                elif not point.resumed:
                    if point.cached:
                        stats.cache_hits += 1
                    else:
                        stats.executed += 1
                checkpoint()
                if self.bus is not None:
                    kind = (
                        EventKind.SWEEP_ERROR if point.error is not None
                        else EventKind.SWEEP_CACHE_HIT if point.cached
                        else EventKind.SWEEP_POINT
                    )
                    self.bus.emit(done, kind, -1, info=point.label)
                if self.progress is not None:
                    self.progress(done, total, point)

        # Interrupted attempts leave points marked "running"; they never
        # settled, so they go back on the queue with their budget intact.
        for ps in ledger:
            if ps.state == "running":
                ps.state = "pending"

        pending: List[int] = []  # indices that need actual execution
        for index, spec in enumerate(specs):
            ps = ledger[index]
            if ps.state != "pending":  # settled by an earlier run
                settle(index, _from_ledger(spec, ps))
                self._emit(EventKind.FARM_RESUME, index,
                           f"{ps.label}: {ps.state} (from manifest)")
                continue
            if self.cache is not None and self._cacheable(spec):
                hit = self.cache.get(spec)
                if hit is not None:
                    ps.state = "done"
                    ps.result = hit
                    settle(index, _point_from(spec, hit, cached=True))
                    continue
            pending.append(index)

        checkpoint()  # the manifest file exists early
        try:
            self._dispatch(specs, ledger, pending, settle)
        except KeyboardInterrupt:
            self._stop()
            for ps in ledger:
                if ps.state == "running":
                    ps.state = "pending"
            raise
        finally:
            if self.pool is not None:
                self.pool.shutdown()
            checkpoint()
            self.stats.wall_s += time.perf_counter() - started
        return [p for p in points if p is not None]

    # ------------------------------------------------------------- internals
    def _open_campaign(self, specs: List[ExperimentSpec]):
        """The ledger at ``<campaign_dir>/<campaign id>.json``: resumed if
        it verifies against ``specs`` and the current code, else new."""
        # Deferred: the manifest loads the results schema.
        from .manifest import RunManifest, campaign_id_for

        campaign = campaign_id_for(specs)
        path = self.campaign_dir / f"{campaign}.json"
        try:
            manifest = RunManifest.load(path)
            manifest.verify_resumable(specs)
            return manifest
        except (ValueError, OSError):
            # Absent, foreign, unreadable or stale (ManifestMismatch is a
            # ValueError): start the ledger over.
            return RunManifest.new(
                campaign, specs, self.policy.as_dict(), path=path
            )

    @staticmethod
    def _cacheable(spec: ExperimentSpec) -> bool:
        """Whether the spec may share a cache entry.  ``observe`` is
        excluded from :meth:`~ExperimentSpec.content_hash` (instrumentation
        does not change results), but a *validated* run's result carries
        ``violations`` that an unvalidated run of the same spec would not --
        so validated runs bypass the cache in both directions."""
        return spec.observe is None or not spec.observe.validate

    def _stop(self) -> None:
        self._interrupt.set()
        if self.pool is not None:
            self.pool.interrupt()

    def _dispatch(self, specs, ledger, pending, settle) -> None:
        jobs = min(self.jobs, len(pending))
        if self.pool is not None and pending:
            self.pool.start(jobs)
        if jobs > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=jobs) as threads:
                futures = [
                    threads.submit(self._run_point, specs[index], index,
                                   ledger[index], settle)
                    for index in pending
                ]
                try:
                    for future in futures:
                        future.result()
                except KeyboardInterrupt:
                    # Kill the workers before leaving the block, which
                    # waits for the dispatcher threads.
                    self._stop()
                    for future in futures:
                        future.cancel()
                    raise
        else:
            for index in pending:  # one point at a time, on this thread
                self._run_point(specs[index], index, ledger[index], settle)

    def _run_point(self, spec: ExperimentSpec, index: int, ps, settle) -> None:
        """One point's full retry loop (may run on a dispatcher thread);
        ``ps`` is its ledger entry."""
        policy = self.policy
        while True:
            if self._interrupt.is_set():
                return  # stays pending; a resume re-dispatches it
            ps.state = "running"
            ps.attempts += 1
            self._emit(EventKind.FARM_DISPATCH, index,
                       f"{ps.label}: attempt {ps.attempts}")
            if self.pool is None:
                result = _execute_in_process(spec)
            else:
                result = self.pool.run_point(
                    spec.to_dict(), self.point_timeout
                )
            if self._interrupt.is_set() and "error" in result:
                # The attempt was killed by the interrupt, not the
                # workload: it does not count against the budget.
                ps.attempts -= 1
                ps.state = "pending"
                return
            if "error" not in result:
                ps.state = "done"
                ps.error = None
                ps.result = result
                if self.cache is not None and self._cacheable(spec):
                    self.cache.put(spec, result)
                settle(index, _point_from(spec, result, cached=False))
                return
            worker_killing = bool(
                result.get("worker_died") or result.get("timed_out")
            )
            if worker_killing:
                ps.worker_deaths += 1
                with self._lock:
                    self.stats.worker_deaths += 1
            threshold = policy.poison_threshold
            if threshold is not None and ps.worker_deaths >= threshold:
                ps.state = "poisoned"
                ps.error = result["error"]
                result = dict(result, poisoned=True)
                self._emit(EventKind.FARM_POISON, index,
                           f"{ps.label}: quarantined after "
                           f"{ps.worker_deaths} worker death(s)")
                settle(index, _point_from(spec, result, cached=False))
                return
            retryable = worker_killing or policy.retry_errors
            if retryable and ps.attempts < policy.max_attempts:
                delay = backoff_delay(policy, index, ps.attempts)
                with self._lock:
                    self.stats.retries += 1
                self._emit(EventKind.FARM_RETRY, index,
                           f"{ps.label}: attempt {ps.attempts} failed "
                           f"({'worker death' if worker_killing else 'error'}"
                           f"), backing off {delay:.3f}s")
                if delay > 0:
                    self._sleep(delay)
                continue
            ps.state = "timed_out" if result.get("timed_out") else "errored"
            ps.error = result["error"]
            settle(index, _point_from(spec, result, cached=False))
            return

    def _emit(self, kind: str, index: int, info: str) -> None:
        if self.bus is not None:
            self.bus.emit(index, kind, -1, info=info)
