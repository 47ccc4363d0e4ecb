"""Benchmark-suite infrastructure.

Every bench regenerates one table or figure of the paper.  Results are
printed live (bypassing pytest capture) and archived under
``benchmarks/results/`` twice: the human-readable ``<bench>.txt`` and a
machine-readable ``<bench>.json`` -- a schema-stamped
:class:`repro.report.schema.BenchRecord` carrying whatever the bench
passed to ``report.record`` plus the run knobs.  At session end the
per-bench JSONs are merge-updated into ``results/BENCH_summary.json``
(existing benches are kept, the file is written atomically -- a partial
run can no longer clobber siblings' results), and one
timestamped, git-SHA-stamped snapshot is appended to
``results/history/`` so consecutive runs accumulate a perf trajectory
for ``repro report``.  ``REPRO_BENCH_CYCLES`` scales the measurement
window of the fixed-horizon benches (default 20000 cycles; the paper
used 1,000,000 -- throughput shapes are stable long before that).
"""

import os
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.report.schema import (BenchRecord, EngineStats, load_results_tree,
                                 write_record_atomic)

RESULTS_DIR = Path(__file__).parent / "results"

SUMMARY_NAME = "BENCH_summary.json"

#: Measurement window for the throughput figures.
BENCH_CYCLES = int(os.environ.get("REPRO_BENCH_CYCLES", "20000"))

#: Random seed shared by all benches.
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "11"))

#: Worker processes for the sweep-engine-backed benches.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

#: Benches that flushed results in THIS session (the summary merges the
#: whole tree; the history snapshot records which part actually ran).
_SESSION_BENCHES = set()


class Report:
    """Prints rows live and archives them to text + JSON results files."""

    def __init__(self, name: str, capmanager):
        self.name = name
        self.capmanager = capmanager
        RESULTS_DIR.mkdir(exist_ok=True)
        self.path = RESULTS_DIR / f"{name}.txt"
        self.json_path = RESULTS_DIR / f"{name}.json"
        self._lines = []
        self.data = {}
        self.engine_stats = None
        self.wall_seconds = 0.0

    def line(self, text: str = "") -> None:
        self._lines.append(text)
        if self.capmanager is not None:
            with self.capmanager.global_and_fixture_disabled():
                print(text)
        else:  # pragma: no cover - plain pytest without capture manager
            print(text)

    def record(self, key: str, value) -> None:
        """Store one machine-readable result (any JSON-serialisable value)."""
        self.data[key] = value

    def check_claims(self) -> None:
        """Judge this bench's claims (:mod:`repro.report.claims`) on the
        data recorded so far, write every result into the text archive,
        then fail once, naming each failing claim with its margin."""
        from repro.report.claims import claims_for, evaluate

        results = evaluate(claims_for(self.name), self.data)
        if not results:
            raise LookupError(f"no claims registered for bench {self.name}")
        if self._lines[-1:] != [""]:
            self.line("")
        self.line("Claims (repro.report.claims):")
        for result in results:
            self.line(f"  {result}")
        failed = [f"  {result}" for result in results if result.failed]
        if failed:
            raise AssertionError(f"{len(failed)} of {len(results)} claims "
                                 "failed:\n" + "\n".join(failed))

    def flush(self) -> None:
        self.path.write_text("\n".join(self._lines) + "\n")
        record = BenchRecord(
            bench=self.name,
            bench_cycles=BENCH_CYCLES,
            bench_seed=BENCH_SEED,
            wall_seconds=round(self.wall_seconds, 3),
            data=self.data,
            engine=self.engine_stats,
        )
        write_record_atomic(self.json_path, record)
        _SESSION_BENCHES.add(self.name)


@pytest.fixture
def report(request):
    capmanager = request.config.pluginmanager.getplugin("capturemanager")
    rep = Report(request.node.name, capmanager)
    rep.line("")
    rep.line("=" * 78)
    rep.line(f"{request.node.name}")
    rep.line("=" * 78)
    start = time.perf_counter()
    yield rep
    rep.wall_seconds = time.perf_counter() - start
    rep.flush()


@pytest.fixture
def engine(report):
    """Cache-backed sweep engine for the delivered-count benches.

    Points are cached under ``benchmarks/results/.cache`` keyed on spec
    content + code version, so re-runs over an unchanged tree are nearly
    free; ``REPRO_BENCH_JOBS`` parallelises cold runs.  Hit/miss stats land
    in the bench's JSON (and the merged summary) under ``engine``.
    """
    from repro.experiments import SweepEngine

    eng = SweepEngine(jobs=BENCH_JOBS, cache=True,
                      cache_dir=RESULTS_DIR / ".cache")
    yield eng
    report.engine_stats = EngineStats.from_dict(eng.stats.as_dict())


def pytest_sessionfinish(session, exitstatus):
    """Merge-update the summary artifact and append a history snapshot.

    :func:`~repro.report.schema.load_results_tree` merges the previous
    ``BENCH_summary.json`` (benches whose per-bench files were cleaned
    survive), every per-bench JSON on disk and the campaign ledgers.  That
    keeps the summary whole when benches run selectively
    (``pytest benchmarks/test_fig2...``), and the atomic write means an
    interrupted session never leaves a truncated file.
    """
    if not RESULTS_DIR.is_dir():
        return
    summary = load_results_tree(RESULTS_DIR)
    if not summary.benches:
        return
    write_record_atomic(RESULTS_DIR / SUMMARY_NAME, summary)
    if _SESSION_BENCHES:
        from repro.report.history import (append_snapshot,
                                          snapshot_from_summary)

        append_snapshot(
            RESULTS_DIR,
            snapshot_from_summary(summary, sorted(_SESSION_BENCHES)),
        )
