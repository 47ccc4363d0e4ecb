"""Record the pinned output digests in ``digests.json``.

Usage, from the repository root::

    python3 perfbench/pin.py

For every workload and each of the ``PINNED_SEEDS`` seeds it runs the workload once on the default
scheduler and once on ``heap``, the kernel kept as the executable spec, and
refuses to pin a digest the two disagree on.  Re-pin only in a change that
is meant to alter the simulated machine; a speed-up must leave every
digest as it is.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor

from run import DIGESTS, PINNED_SEEDS, WORKLOAD_NAMES, child

#: Repetitions run side by side (one per core of a two-core host).
JOBS = 2


def pin_one(workload: str, seed: int) -> str:
    digests = {}
    for kernel in (None, "heap"):
        record, error = child(workload, seed, kernel=kernel)
        if record is None:
            raise RuntimeError(f"{workload} seed {seed} ({kernel}): {error}")
        digests[kernel] = record["digest"]
    if digests[None] != digests["heap"]:
        raise RuntimeError(
            f"{workload} seed {seed}: default kernel digest {digests[None]} "
            f"!= heap digest {digests['heap']}"
        )
    return digests[None]


def main() -> int:
    jobs = [(w, s) for w in WORKLOAD_NAMES for s in range(PINNED_SEEDS)]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        digests = list(pool.map(lambda job: pin_one(*job), jobs))
    pins = {workload: {} for workload in WORKLOAD_NAMES}
    for (workload, seed), value in zip(jobs, digests):
        pins[workload][str(seed)] = value
    DIGESTS.write_text(json.dumps(
        {"checked_against": "heap", "workloads": pins}, indent=1, sort_keys=True,
    ) + "\n")
    print(f"pinned {len(jobs)} digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
