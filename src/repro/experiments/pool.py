"""The sweep engine's worker pool: how a point runs out of process.

:class:`~repro.experiments.engine.SweepEngine` decides *what to run and
how to recover* (cache, resume ledger, retries); :class:`PoolExecutor`
runs a single point in a shared
:class:`~concurrent.futures.ProcessPoolExecutor`, the only process pool
in the package.  Workers are reused across points, so a point pays no
interpreter start-up.

A hard worker death (``os._exit``, segfault, OOM kill) or a watchdog
kill breaks the whole pool.  The executor then regenerates it: the point
that observed the break first is reported (``worker_died`` or
``timed_out``) and co-resident in-flight points are resubmitted to the
fresh generation.  With several workers the reported victim can be
collateral rather than the killer, but a resubmitted killer breaks its
own next generation, so attribution converges.

``timeout`` is the per-point liveness watchdog: a worker that produces
no result inside the bound is killed and the point reported
``timed_out``.

The contract is data-in/data-out: :meth:`PoolExecutor.run_point` takes a
spec dict (from :meth:`~repro.experiments.spec.ExperimentSpec.to_dict`)
and returns a result dict in the engine's slim shape -- either a real
result or an ``{"error": ...}`` diagnosis carrying an optional
``worker_died`` / ``timed_out`` marker.  It is safe to call from several
dispatcher threads at once.

The engine imports this module only when a sweep needs a worker, so a
serial run never loads :mod:`concurrent.futures.process`.
"""

from __future__ import annotations

import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, Optional, Tuple

from .engine import _execute_spec_dict


class PoolExecutor:
    """Shared process pool, regenerated across breaks.

    A hard worker death breaks the whole ``ProcessPoolExecutor``, and a
    watchdog kill terminates its workers, so the executor keeps a
    *generation* counter.  The first ``run_point`` to observe a break (or
    to time out) tears the pool down, builds a fresh generation and
    reports its point; threads whose points were merely in flight on the
    dead generation resubmit them to the fresh one.  Every break settles
    one point, so the resubmission terminates.
    """

    def __init__(self) -> None:
        self._jobs = 1
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._interrupted = False
        self._lock = threading.Lock()

    def start(self, jobs: int) -> None:
        """Bring the pool up for ``jobs`` concurrent points."""
        self._jobs = max(1, int(jobs))
        self._interrupted = False
        # Under the fork start method the first submit forks every worker.
        # Do it here, on the caller's thread, before the engine starts its
        # dispatcher threads: a process forked while other threads run
        # can inherit a lock one of them held and deadlock on it.
        pool, _ = self._current()
        pool.submit(int)

    def _current(self) -> Tuple[Optional[ProcessPoolExecutor], int]:
        """The live pool and its generation; no pool once interrupted."""
        with self._lock:
            if self._pool is None and not self._interrupted:
                self._pool = ProcessPoolExecutor(max_workers=self._jobs)
            return self._pool, self._generation

    def _degrade(self, generation: int, kill: bool) -> bool:
        """Replace the pool, once per observed generation.  True for the
        caller that did it, false when another thread already had."""
        with self._lock:
            if self._generation != generation or self._pool is None:
                return False
            pool, self._pool = self._pool, None
            self._generation += 1
        if kill:
            # A wedged worker would block shutdown indefinitely.
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        return True

    def run_point(
        self, spec_dict: Dict, timeout: Optional[float] = None
    ) -> Dict:
        """Execute one spec dict; return the slim result dict.

        Never raises for per-point failures: an in-point exception, a
        dead worker, or a watchdog timeout all come back as an
        ``{"error": ...}`` dict with the matching marker.
        """
        while True:
            pool, generation = self._current()
            if pool is None:
                return {"error": "sweep interrupted before dispatch"}
            try:
                future = pool.submit(_execute_spec_dict, spec_dict)
            except Exception:  # noqa: BLE001 - pool broke between points
                if not self._degrade(generation, kill=False):
                    continue  # another point already regenerated it
                return {
                    "error": "process pool was broken before dispatch; "
                             "pool regenerated",
                    "worker_died": True,
                }
            try:
                return future.result(timeout=timeout)
            except FuturesTimeout:
                self._degrade(generation, kill=True)
                return {
                    "error": (
                        f"point exceeded the {timeout}s wall-clock timeout "
                        "(liveness watchdog); pool generation terminated, "
                        "point not cached"
                    ),
                    "timed_out": True,
                }
            except BrokenProcessPool:
                if not self._degrade(generation, kill=False):
                    continue  # collateral of a break charged elsewhere
                return {
                    "error": (
                        "worker process died abruptly while this point was "
                        "in flight (hard exit, segfault, or OOM kill); pool "
                        "regenerated -- with several workers the victim may "
                        "be collateral"
                    ),
                    "worker_died": True,
                }
            except Exception:  # noqa: BLE001 - cancellation, pickling failures
                return {"error": traceback.format_exc()}

    def interrupt(self) -> None:
        """Kill in-flight work (SIGINT/SIGTERM path); idempotent."""
        with self._lock:
            self._interrupted = True
            generation = self._generation
        self._degrade(generation, kill=True)

    def shutdown(self) -> None:
        """Release the pool; idempotent."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
