"""Execution backends: how the sweep engine executes a single point.

:class:`~repro.experiments.engine.SweepEngine` decides *what to run and
how to recover* (cache, resume ledger, retries); this module decides *how
a single point is executed*.  :data:`EXECUTORS` maps each backend's
``name`` (the ``--executor`` value) to its class:

``pool``
    A shared :class:`~concurrent.futures.ProcessPoolExecutor`, the only
    process pool in the package.  Cheapest per point (workers are reused
    across points), but a hard worker death (``os._exit``, segfault, OOM
    kill) or a watchdog kill breaks the whole executor.  The backend then
    regenerates the pool: the point that observed the break first is
    reported (``worker_died`` or ``timed_out``) and co-resident in-flight
    points are resubmitted to the fresh generation.  With several workers
    the reported victim can be collateral rather than the killer, but a
    resubmitted killer breaks its own next generation, so attribution
    converges.

``subprocess``
    One fresh interpreter per point (``python -m repro.farm.worker``).
    Slower to start, but a crash is *contained and exactly attributed*:
    only the crashing point is affected, and the backend reports its exit
    status -- what the crash-survival tests and the chaos engine's hostile
    workloads want.

Both backends treat ``timeout`` as the per-point liveness watchdog: a
worker that produces no result inside the bound is killed and the point
reported ``timed_out``.

The contract is data-in/data-out: ``run_point`` takes a spec dict (from
:meth:`~repro.experiments.spec.ExperimentSpec.to_dict`) and returns a
result dict in the engine's slim shape -- either a real result or an
``{"error": ...}`` diagnosis carrying optional ``worker_died`` /
``timed_out`` / ``exit_code`` markers.  ``run_point`` must be safe to call
from several dispatcher threads at once.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..experiments.engine import _execute_spec_dict


class FarmExecutor:
    """Interface of a point-execution backend.  ``name`` is its key in
    :data:`EXECUTORS`; a campaign's id hashes it, so a campaign resumes
    only on the backend it started on."""

    name: str = ""

    def start(self, jobs: int) -> None:
        """Bring the backend up for ``jobs`` concurrent points."""

    def run_point(
        self, spec_dict: Dict, timeout: Optional[float] = None
    ) -> Dict:
        """Execute one spec dict; return the slim result dict.

        Never raises for per-point failures: an in-point exception, a
        dead worker, or a watchdog timeout all come back as an
        ``{"error": ...}`` dict with the matching marker.  Thread-safe.
        """
        raise NotImplementedError

    def interrupt(self) -> None:
        """Kill in-flight work (SIGINT/SIGTERM path); idempotent."""

    def shutdown(self) -> None:
        """Release the backend's resources; idempotent."""


# --------------------------------------------------------------------------
# "pool": shared process pool, regenerated across breaks.
# --------------------------------------------------------------------------


class PoolExecutor(FarmExecutor):
    """Shared process pool; cheapest per point, coarse crash attribution.

    A hard worker death breaks the whole ``ProcessPoolExecutor``, and a
    watchdog kill terminates its workers, so the backend keeps a
    *generation* counter.  The first ``run_point`` to observe a break (or
    to time out) tears the pool down, builds a fresh generation and
    reports its point; threads whose points were merely in flight on the
    dead generation resubmit them to the fresh one.  Every break settles
    one point, so the resubmission terminates.
    """

    name = "pool"

    def __init__(self) -> None:
        self._jobs = 1
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._interrupted = False
        self._lock = threading.Lock()

    def start(self, jobs: int) -> None:
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
        with self._lock:
            self._interrupted = True
            generation = self._generation
        self._degrade(generation, kill=True)

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


# --------------------------------------------------------------------------
# "subprocess": one fresh interpreter per point.
# --------------------------------------------------------------------------


def _worker_env() -> Dict[str, str]:
    """Child environment with this package importable.

    The repo runs uninstalled (``PYTHONPATH=src``); a worker interpreter
    must find ``repro`` the same way regardless of how the parent did.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_dir + os.pathsep + existing if existing else src_dir
        )
    return env


class SubprocessExecutor(FarmExecutor):
    """One ``python -m repro.farm.worker`` interpreter per point.

    The worker reads the spec dict as JSON on stdin and writes the slim
    result as JSON on stdout; anything the simulation prints is diverted
    to stderr.  A nonzero exit status (or garbage on stdout) is diagnosed
    as ``worker_died`` with the exit code and a stderr tail -- and affects
    nobody else, which is the point.
    """

    name = "subprocess"

    #: Kept stderr tail length in a ``worker_died`` diagnosis.
    STDERR_TAIL = 2000

    def __init__(self) -> None:
        self._env = _worker_env()
        self._live: Dict[int, subprocess.Popen] = {}
        self._lock = threading.Lock()
        self._interrupted = False

    def start(self, jobs: int) -> None:
        self._interrupted = False

    def run_point(
        self, spec_dict: Dict, timeout: Optional[float] = None
    ) -> Dict:
        if self._interrupted:
            return {"error": "sweep interrupted before dispatch"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.farm.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self._env,
            text=True,
        )
        with self._lock:
            self._live[proc.pid] = proc
        try:
            try:
                out, err = proc.communicate(
                    json.dumps(spec_dict), timeout=timeout
                )
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return {
                    "error": (
                        f"point exceeded the {timeout}s wall-clock "
                        "timeout (liveness watchdog); worker killed, point "
                        "not cached"
                    ),
                    "timed_out": True,
                }
        finally:
            with self._lock:
                self._live.pop(proc.pid, None)
        if proc.returncode != 0:
            tail = (err or "").strip()[-self.STDERR_TAIL:]
            return {
                "error": (
                    f"worker exited with status {proc.returncode} "
                    "(hard exit, signal, or OOM kill)"
                    + (f"; stderr tail:\n{tail}" if tail else "")
                ),
                "worker_died": True,
                "exit_code": proc.returncode,
            }
        try:
            return json.loads(out)
        except ValueError:
            return {
                "error": (
                    "worker exited 0 but wrote no parseable result "
                    f"(stdout: {out[:200]!r})"
                ),
                "worker_died": True,
                "exit_code": 0,
            }

    def interrupt(self) -> None:
        self._interrupted = True
        with self._lock:
            live = list(self._live.values())
        for proc in live:
            try:
                proc.kill()
            except OSError:
                pass

    def shutdown(self) -> None:
        self.interrupt()
        self._interrupted = False


#: Every execution backend by name, in ``--executor`` help order.
EXECUTORS = {cls.name: cls for cls in (PoolExecutor, SubprocessExecutor)}
