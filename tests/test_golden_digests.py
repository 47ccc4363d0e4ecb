"""Golden digests: three small runs whose full metrics JSON is pinned.

The scheduler-parity matrix compares kernels, so it cannot see a change in
the layers both kernels run -- links, routers, NICs and processors.  These
pins can: each is the SHA-256 of ``metrics_json(result)`` (minus the
wall-clock ``self_profile``, as the benchmark's digest does) for a run that
exercises one of those layers end to end.  A mismatch means the simulated
machine behaves differently; re-pin only in a change that means to alter
simulated behaviour, and say so.
"""

import hashlib
import json

import pytest

from repro.experiments import ExperimentSpec, cshift, heavy_synthetic, run_experiment
from repro.obs import Observability, metrics_json
from repro.traffic import CShiftConfig

SPECS = {
    # Dense NIFDY traffic on an all-active fat tree: links, routers, the
    # scalar protocol and the processors' closed loop.
    "heavy_fattree16": ExperimentSpec(
        network="fattree",
        traffic=heavy_synthetic(),
        num_nodes=16,
        nic_mode="nifdy",
        run_cycles=3000,
        seed=3,
    ),
    # Spraying fabric, reorder NIC, static loss (the drop RNG path), with
    # the bus and the invariant monitor attached.
    "lossy_spray16": ExperimentSpec(
        network="fattree-spray",
        traffic=heavy_synthetic(),
        num_nodes=16,
        nic_mode="reorder-bitmap",
        drop_prob=0.001,
        run_cycles=3000,
        seed=3,
        observe=Observability(events=True, validate=True),
    ),
    # Half the CM-5's nodes idle: the idle-node path, run to completion.
    "cshift_cm5_half_idle": ExperimentSpec(
        network="cm5",
        traffic=cshift(CShiftConfig(words_per_phase=8)),
        num_nodes=16,
        active_nodes=8,
        nic_mode="nifdy",
        max_cycles=2_000_000,
        seed=3,
    ),
}

PINS = {
    "heavy_fattree16": (
        "6b6db82bde7f7969bedaaf113ef28c30"
        "035b98a44097f4f31e6676672a9f2d8f"
    ),
    "lossy_spray16": (
        "3156252b8418a445190172870c5a2fea"
        "d517022a866c4e88ece79ec8de4609ac"
    ),
    "cshift_cm5_half_idle": (
        "8e3c8fc33d9f64ac8b45921ace051e2b"
        "ed0c71bb06264c78454ce9047b6c8db1"
    ),
}


def _digest(spec: ExperimentSpec) -> str:
    result = run_experiment(spec)
    doc = metrics_json(result)
    doc.pop("self_profile", None)
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_metrics_digest_matches_pin(name):
    assert _digest(SPECS[name]) == PINS[name]
