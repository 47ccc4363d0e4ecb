"""Golden digests: six small runs whose full metrics JSON is pinned.

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
from repro.faults import FaultEvent, FaultPlan
from repro.obs import Observability, metrics_json
from repro.traffic import CShiftConfig

# A permanent ejection-link failure: every packet bound for node 9 is lost
# for good, so the senders give up on them and the watchdog reports a stall.
PART = FaultPlan([FaultEvent("link_fail", at=1500, link="ft:ej9")])

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
    # Lossy NIFDY selects the retransmitting NIC: the sender timer, Karn
    # RTT samples and bulk grants, with the monitor and sampler attached.
    "lossy_nifdy16": ExperimentSpec(
        network="fattree",
        traffic=heavy_synthetic(),
        num_nodes=16,
        nic_mode="nifdy",
        drop_prob=0.01,
        run_cycles=3000,
        seed=3,
        observe=Observability(events=True, validate=True, sample_interval=250),
    ),
    # A partition under the retransmitting NIC: exhausted retries abandon
    # packets and the watchdog writes a stall report.
    "nifdy_partition16": ExperimentSpec(
        network="fattree",
        traffic=cshift(CShiftConfig(words_per_phase=8)),
        num_nodes=16,
        nic_mode="nifdy",
        drop_prob=0.005,
        max_retries=3,
        max_cycles=400_000,
        watchdog_cycles=50_000,
        fault_plan=PART,
        seed=3,
        observe=Observability(events=True, validate=True, sample_interval=500),
    ),
    # The same partition on the spraying fabric under the reorder NIC's
    # per-stream timer: abandoned streams and its own stall notes.
    "reorder_partition16": ExperimentSpec(
        network="fattree-spray",
        traffic=cshift(CShiftConfig(words_per_phase=8)),
        num_nodes=16,
        nic_mode="reorder-window",
        drop_prob=0.005,
        max_retries=10,
        max_cycles=400_000,
        watchdog_cycles=20_000,
        fault_plan=PART,
        seed=3,
        observe=Observability(events=True, validate=True, sample_interval=500),
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
    "lossy_nifdy16": (
        "c121fdc3d8efc26f8b78b3416ed05a99"
        "55f307f467ef8161bc2040f7dddb4bdb"
    ),
    "nifdy_partition16": (
        "fa6eeb41e832116acf407d5455159a61"
        "9e9392ecbda417ecf8fecc5507476f8e"
    ),
    "reorder_partition16": (
        "fb0fb5ce55cf444e482f7bff852a598f"
        "93c97c5c802ca11ffc5823153108342f"
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
