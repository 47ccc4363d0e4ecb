"""The NIC contract: every mode in ``NIC_MODES`` builds a NIC that declares
the state observers read, keeps the ordering promise its mode table entry
relies on, and can describe itself in a stall report."""

import pytest

from repro.experiments import ExperimentSpec, heavy_synthetic, run_experiment
from repro.nic import (
    NIC_MODES,
    BaseNIC,
    NifdyParams,
    OutgoingPool,
    OutstandingPacketTable,
    RetransmitTimer,
)
from repro.obs import Observability

COUNTERS = (
    "packets_injected", "packets_ejected", "packets_accepted",
    "acks_sent", "acks_received", "bulk_grants", "bulk_rejects",
    "scalar_sent", "bulk_sent", "retransmissions",
    "duplicates_dropped", "packets_abandoned", "rtt_samples",
)


def _run(mode, drop_prob):
    return run_experiment(ExperimentSpec(
        network="fattree-spray",
        traffic=heavy_synthetic(),
        num_nodes=16,
        nic_mode=mode,
        drop_prob=drop_prob,
        run_cycles=3000,
        seed=4,
        observe=Observability(validate=True),
    ))


@pytest.mark.parametrize("drop_prob", [0.0, 0.001], ids=["lossless", "lossy"])
@pytest.mark.parametrize("mode", list(NIC_MODES))
def test_mode_honours_the_nic_contract(mode, drop_prob):
    result = _run(mode, drop_prob)
    assert result.delivered > 0
    for nic in result.nics:
        assert isinstance(nic, BaseNIC)
        # NIFDY state comes as a set: params, OPT, pool and dialogs.
        nifdy = nic.params is not None
        assert nifdy == isinstance(nic.params, NifdyParams)
        assert nifdy == isinstance(nic.opt, OutstandingPacketTable)
        assert nifdy == isinstance(nic.pool, OutgoingPool)
        assert nifdy == isinstance(nic.rx_dialogs, dict)
        assert nic.reorder_rx is None or isinstance(nic.reorder_rx, dict)
        assert nic.retx is None or isinstance(nic.retx, RetransmitTimer)
        for name in COUNTERS:
            assert isinstance(getattr(nic, name), int), name
        if NIC_MODES[mode].exploit_inorder:
            assert nic.guarantees_order
        notes = nic.stall_notes()
        assert isinstance(notes, list)
        assert all(isinstance(note, str) for note in notes)
    if drop_prob:
        # A lossy fabric needs a retransmitting sender wherever the mode
        # promises delivery at all.
        assert all(
            nic.retx is not None for nic in result.nics if nic.guarantees_order
        )
    if all(nic.guarantees_order for nic in result.nics):
        in_order = [v for v in result.violations if v["invariant"] == "in_order"]
        assert in_order == []
        assert result.order_violations == 0
