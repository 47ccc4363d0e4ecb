"""Tests for NIC-offloaded collectives (ROADMAP item 4).

Covers the combining tree shape, the per-NIC collective engine (epoch
numbering, duplicate healing, loss recovery), the host-side flat-combine
baseline, and end-to-end allreduce runs under both ``barrier="host"`` and
``barrier="nic"`` -- including the link-fail-mid-collective regression:
a faulted collective must neither hang nor double-contribute.
"""

import pytest

from repro.experiments import ExperimentSpec, run_experiment
from repro.faults import FaultEvent, FaultPlan
from repro.nic import (
    COLLECTIVE_OPS,
    CollectiveEngine,
    CollectiveParams,
    CollectiveTree,
    HostCollective,
)
from repro.obs import Observability, metrics_json
from repro.packets import (
    REPLY_NET,
    REQUEST_NET,
    CollectiveInfo,
    Packet,
    PacketKind,
    make_collective,
)
from repro.sim import Simulator
from repro.traffic import AllReduceConfig, TrafficSpec, expected_sum


class TestCollectiveTree:
    def test_root_is_lowest_member(self):
        tree = CollectiveTree(range(16), fanout=4)
        assert tree.root == 0
        assert tree.parent_of(0) is None

    def test_kary_shape(self):
        tree = CollectiveTree(range(16), fanout=4)
        assert tree.children_of(0) == [1, 2, 3, 4]
        assert tree.children_of(1) == [5, 6, 7, 8]
        assert tree.children_of(3) == [13, 14, 15]
        assert tree.children_of(5) == []
        assert tree.parent_of(13) == 3

    def test_parent_child_consistency(self):
        for fanout in (1, 2, 3, 4, 7):
            tree = CollectiveTree(range(13), fanout)
            for node in tree.members:
                for child in tree.children_of(node):
                    assert tree.parent_of(child) == node
                parent = tree.parent_of(node)
                if parent is not None:
                    assert node in tree.children_of(parent)

    def test_fanout_one_is_a_chain(self):
        tree = CollectiveTree(range(4), fanout=1)
        assert tree.children_of(0) == [1]
        assert tree.children_of(1) == [2]
        assert tree.children_of(3) == []

    def test_sparse_unsorted_members(self):
        tree = CollectiveTree((9, 2, 5), fanout=4)
        assert tree.root == 2
        assert tree.children_of(2) == [5, 9]
        assert not tree.is_member(0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CollectiveTree((), fanout=2)


class TestCollectiveParams:
    def test_defaults_are_valid(self):
        params = CollectiveParams()
        assert params.barrier == "host"
        assert params.op in COLLECTIVE_OPS

    @pytest.mark.parametrize("kwargs", [
        dict(barrier="fpga"),
        dict(fanout=0),
        dict(op="xor"),
        dict(retx_timeout=0),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CollectiveParams(**kwargs)


class TestCollectivePackets:
    def test_contribution_rides_request_net(self):
        pkt = make_collective(3, 0, CollectiveInfo(phase="up", epoch=2, value=7))
        assert pkt.kind is PacketKind.COLLECTIVE
        assert pkt.logical_net == REQUEST_NET
        assert pkt.control_only and not pkt.needs_ack

    def test_release_rides_reply_net(self):
        pkt = make_collective(0, 3, CollectiveInfo(phase="down", epoch=2))
        assert pkt.logical_net == REPLY_NET

    def test_collective_kind_requires_info(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, kind=PacketKind.COLLECTIVE, size_bytes=16)


class TestHostCollective:
    def test_flat_combine_releases_sum(self):
        sim = Simulator()
        coll = HostCollective(sim, parties=3, release_cost=10)
        got = []
        for node in range(3):
            sim.schedule(node + 1, coll.arrive, node, 10 * (node + 1),
                         lambda v, n=node: got.append((n, v, sim.now)))
        sim.run()
        assert sorted(got) == [(0, 60, 13), (1, 60, 13), (2, 60, 13)]
        assert coll.crossings == 1

    @pytest.mark.parametrize("op,expect", [("max", 30), ("min", 10)])
    def test_other_operators(self, op, expect):
        sim = Simulator()
        coll = HostCollective(sim, parties=3, release_cost=1, op=op)
        got = []
        for node in range(3):
            coll.arrive(node, 10 * (node + 1), got.append)
        sim.run()
        assert got == [expect] * 3

    def test_pure_barrier_combines_to_none(self):
        sim = Simulator()
        coll = HostCollective(sim, parties=2, release_cost=1)
        got = []
        coll.arrive(0, None, got.append)
        coll.arrive(1, None, got.append)
        sim.run()
        assert got == [None, None]

    def test_membership_and_double_arrival_enforced(self):
        sim = Simulator()
        coll = HostCollective(sim, parties=(0, 4), release_cost=1)
        coll.arrive(0, 1, lambda v: None)
        with pytest.raises(RuntimeError, match="not a member"):
            coll.arrive(2, 1, lambda v: None)
        with pytest.raises(RuntimeError, match="twice"):
            coll.arrive(0, 1, lambda v: None)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            HostCollective(Simulator(), parties=2, op="xor")


class _StubNic:
    """A NIC whose injection port always accepts -- isolates engine logic."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.obs = None
        self.collective = None
        self.sent = []

    def _start_injection(self, packet):
        self.sent.append(packet)
        return True

    def _retry_when_port_frees(self, key, net, fn):  # pragma: no cover
        raise AssertionError("stub injection port never blocks")


def _engine(node_id, members=(0, 1), fanout=4, lossy=False, op="sum"):
    sim = Simulator()
    nic = _StubNic(node_id)
    engine = CollectiveEngine(
        sim, nic, CollectiveTree(members, fanout),
        CollectiveParams(barrier="nic", fanout=fanout, op=op), lossy=lossy,
    )
    nic.collective = engine
    return sim, nic, engine


class TestCollectiveEngine:
    def test_root_completes_and_releases(self):
        sim, nic, engine = _engine(0)
        got = []
        engine.arrive(5, got.append)
        assert got == []  # child 1 has not contributed yet
        engine.on_packet(make_collective(
            1, 0, CollectiveInfo(phase="up", epoch=0, value=7, count=1)))
        assert got == [12]
        assert engine.coll_completed == 1
        assert engine.pending_epochs == []
        releases = [p for p in nic.sent if p.coll.phase == "down"]
        assert [p.dst for p in releases] == [1]
        assert releases[0].coll.value == 12

    def test_duplicate_child_contribution_dropped(self):
        sim, nic, engine = _engine(0, members=(0, 1, 2))
        got = []
        engine.arrive(1, got.append)
        up = make_collective(
            1, 0, CollectiveInfo(phase="up", epoch=0, value=10, count=1))
        engine.on_packet(up)
        engine.on_packet(up)  # retransmit race: must not double-fold
        assert engine.coll_duplicates == 1
        assert got == []  # child 2 still missing; not released early
        engine.on_packet(make_collective(
            2, 0, CollectiveInfo(phase="up", epoch=0, value=100, count=1)))
        assert got == [111]

    def test_stale_contribution_answered_with_fresh_release(self):
        sim, nic, engine = _engine(0)
        engine.arrive(5, lambda v: None)
        up = make_collective(
            1, 0, CollectiveInfo(phase="up", epoch=0, value=7, count=1))
        engine.on_packet(up)
        before = len([p for p in nic.sent if p.coll.phase == "down"])
        engine.on_packet(up)  # child evidently missed the release
        releases = [p for p in nic.sent if p.coll.phase == "down"]
        assert len(releases) == before + 1
        assert engine.coll_duplicates == 1

    def test_fast_child_runs_an_epoch_ahead(self):
        """A leaf may enter collective N+1 while N's release is in flight;
        epoch numbering keeps the two from being confused."""
        sim, nic, engine = _engine(1)  # leaf; parent is 0
        got = []
        engine.arrive(10, lambda v: got.append(("e0", v)))
        engine.arrive(20, lambda v: got.append(("e1", v)))
        ups = [p for p in nic.sent if p.coll.phase == "up"]
        assert [(p.coll.epoch, p.coll.value) for p in ups] == [(0, 10), (1, 20)]
        assert engine.pending_epochs == [0, 1]
        engine.on_packet(make_collective(
            0, 1, CollectiveInfo(phase="down", epoch=0, value=30)))
        engine.on_packet(make_collective(
            0, 1, CollectiveInfo(phase="down", epoch=1, value=70)))
        assert got == [("e0", 30), ("e1", 70)]
        assert engine.pending_epochs == []

    def test_duplicate_release_ignored(self):
        sim, nic, engine = _engine(1)
        got = []
        engine.arrive(10, got.append)
        down = make_collective(
            0, 1, CollectiveInfo(phase="down", epoch=0, value=30))
        engine.on_packet(down)
        engine.on_packet(down)
        assert got == [30]

    def test_lossy_leaf_retransmits_until_released(self):
        sim, nic, engine = _engine(1, lossy=True)
        engine.arrive(10, lambda v: None)
        sim.run_until(engine.params.retx_timeout * 3 + 1)
        ups = [p for p in nic.sent if p.coll.phase == "up"]
        assert len(ups) >= 3  # original + timer-driven retransmits
        assert engine.coll_retransmits >= 2
        engine.on_packet(make_collective(
            0, 1, CollectiveInfo(phase="down", epoch=0, value=30)))
        sent_after = len(nic.sent)
        sim.run_until(sim.now + engine.params.retx_timeout * 3)
        assert len(nic.sent) == sent_after  # timer cancelled by the release

    def test_double_local_contribution_rejected(self):
        """The processor model never does this; the engine still refuses."""
        sim, nic, engine = _engine(0)
        engine.arrive(1, lambda v: None)
        engine._next_epoch = 0  # force a second arrive into the same epoch
        with pytest.raises(RuntimeError, match="twice"):
            engine.arrive(2, lambda v: None)


NODES = 16


def _allreduce_spec(barrier, **overrides):
    defaults = dict(
        network="fattree",
        traffic=TrafficSpec("allreduce", AllReduceConfig(rounds=3)),
        num_nodes=NODES,
        max_cycles=3_000_000,
        seed=3,
        collective_params=CollectiveParams(barrier=barrier),
        observe=Observability(validate=True, events=True),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestAllReduceEndToEnd:
    """The allreduce driver self-verifies every reduced value against the
    closed form, so mere completion proves no contribution was lost or
    double-folded."""

    @pytest.mark.parametrize("barrier", ["host", "nic"])
    def test_clean_run_completes_without_violations(self, barrier):
        result = run_experiment(_allreduce_spec(barrier))
        assert result.completed
        assert result.violations == []
        assert result.metrics.barrier_latency.count == 3 * NODES

    def test_nic_mode_exports_collective_counters(self):
        result = run_experiment(_allreduce_spec("nic"))
        doc = metrics_json(result)
        counters = doc["collectives"]
        assert counters["coll_completed"] == 3  # root completes each epoch
        assert counters["coll_duplicates"] == 0
        assert counters["coll_contribs_sent"] == 3 * (NODES - 1)

    def test_host_mode_has_no_collective_counters(self):
        assert "collectives" not in metrics_json(
            run_experiment(_allreduce_spec("host")))

    def test_expected_sum_closed_form(self):
        n = 5
        for round_no in range(3):
            assert expected_sum(round_no, n) == sum(
                round_no * n + i for i in range(n))

    def test_link_fail_mid_collective_heals(self):
        """The CI regression: a link failure striking mid-collective (plus
        a loss burst) must neither hang the barrier nor double-contribute.
        The engine's idempotent retransmit path covers both nets."""
        plan = FaultPlan(events=(
            FaultEvent(kind="link_fail", at=1500, until=4000, link="ft:up0.0"),
            FaultEvent(kind="loss_burst", at=500, until=6000, prob=0.08),
        ))
        result = run_experiment(_allreduce_spec(
            "nic",
            traffic=TrafficSpec("allreduce", AllReduceConfig(rounds=6)),
            seed=5,
            fault_plan=plan,
        ))
        assert result.completed  # no hang
        assert result.violations == []  # no double-contribution, no loss
        doc = metrics_json(result)
        assert doc["collectives"]["coll_completed"] == 6

    def test_fanout_changes_tree_not_results(self):
        values = []
        for fanout in (2, 8):
            result = run_experiment(_allreduce_spec(
                "nic",
                collective_params=CollectiveParams(barrier="nic", fanout=fanout),
            ))
            assert result.completed and result.violations == []
            values.append(metrics_json(result)["collectives"]["coll_completed"])
        assert values == [3, 3]
