"""Tests for the fault-injection subsystem (plans, injector, degradation)."""

import json

import pytest

from repro.experiments import ExperimentSpec, cshift, run_experiment
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.metrics import degradation_report
from repro.networks import build_network
from repro.nic import NifdyParams, RetransmittingNifdyNIC
from repro.obs import Observability
from repro.sim import RngFactory, Simulator
from repro.traffic import CShiftConfig

from conftest import drain_all
from test_nifdy_protocol import feed, stream


# --------------------------------------------------------------------- plans
class TestFaultPlan:
    def test_shorthand_round_trip(self):
        plan = FaultPlan.from_shorthand([
            "fail@5000-20000:link=ft:up0.0",
            "repair@30000:link=ft:up0.1",
            "burst@5000-20000:prob=0.1,net=ack",
            "pause@1000-4000:node=3",
        ])
        kinds = [e.kind for e in plan]
        assert kinds == ["link_fail", "link_repair", "loss_burst", "node_pause"]
        assert plan.events[0].until == 20000
        assert plan.events[2].net == "ack"
        assert plan.events[3].node == 3

    def test_json_file_loading(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"events": [
            {"kind": "link_fail", "at": 100, "until": 200, "link": "x*"},
            {"kind": "loss_burst", "at": 50, "until": 150, "prob": 0.2,
             "net": "reply"},
        ]}))
        plan = FaultPlan.from_json_file(str(path))
        assert len(plan.events) == 2
        assert plan.events[1].net == "ack"  # 'reply' is an alias
        assert plan.needs_retransmission

    def test_boundaries_and_repairs(self):
        plan = FaultPlan.from_shorthand([
            "fail@5000-20000:link=a",
            "burst@5000-20000:prob=0.1",
        ])
        assert plan.boundaries() == [5000, 20000]
        repairs = plan.repairs()
        assert len(repairs) == 1 and repairs[0].at == 20000

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="kind"):
            FaultEvent(kind="meteor_strike", at=0)
        with pytest.raises(ValueError, match="after"):
            FaultEvent(kind="link_fail", at=100, until=100, link="x")
        with pytest.raises(ValueError, match="prob"):
            FaultEvent(kind="loss_burst", at=0, until=10, prob=0.0)
        with pytest.raises(ValueError, match="node"):
            FaultEvent(kind="node_pause", at=0, until=10)
        with pytest.raises(ValueError, match="shorthand"):
            FaultEvent.from_shorthand("explode@100")
        with pytest.raises(ValueError, match="cycle"):
            FaultEvent.from_shorthand("fail@soon:link=x")

    def test_json_round_trip(self):
        # One serialisation for everything: chaos repro artifacts, spec
        # files, and examples/fault_scenario.py all go through
        # to_json/from_json, so a plan must survive the trip exactly.
        plan = FaultPlan.from_shorthand([
            "fail@5000-20000:link=ft:up0.0",
            "repair@30000:link=ft:up0.1",
            "burst@5000-20000:prob=0.1,net=ack",
            "burst@100-900:prob=0.4",
            "pause@1000-4000:node=3",
        ])
        back = FaultPlan.from_json(plan.to_json())
        assert back.events == plan.events
        # The dict form feeds json.dumps directly (no dataclasses left).
        assert json.loads(plan.to_json()) == plan.to_dict()
        # And the file-loading path accepts the very same document.
        assert FaultPlan.from_dict(plan.to_dict()).events == plan.events

    def test_event_to_dict_round_trip(self):
        event = FaultEvent(kind="loss_burst", at=10, until=99, prob=0.25,
                           net="data", link="ft:ej*")
        assert FaultEvent.from_dict(event.to_dict()) == event

    def test_unmatched_pattern_rejected_at_start(self):
        sim = Simulator()
        net = build_network("mesh2d", sim, 16, rng=RngFactory(0).stream("route"))
        plan = FaultPlan.from_shorthand(["fail@100:link=no-such-link-*"])
        with pytest.raises(ValueError, match="matches no link"):
            FaultInjector(sim, net, plan).start()


# ----------------------------------------------------------- fail -> repair
def lossy_setup(num_nodes=16, network="fattree", retx_timeout=800, seed=5,
                **nic_kwargs):
    sim = Simulator()
    rngf = RngFactory(seed)
    net = build_network(
        network, sim, num_nodes, rng=rngf.stream("route"),
    )
    params = NifdyParams(opt_size=4, pool_size=8, dialogs=1, window=4)
    nics = net.attach_nics(
        lambda n: RetransmittingNifdyNIC(
            sim, n, params, retx_timeout=retx_timeout, **nic_kwargs
        )
    )
    return sim, net, nics


class TestFailRepairRoundTrip:
    def test_fattree_reroutes_then_reclaims(self):
        # Fail 3 of the 4 adaptive up-paths out of node 0's leaf router:
        # traffic must squeeze through the survivor, and after the repair
        # the revived links must carry flits again.
        sim, net, nics = lossy_setup(network="fattree")
        plan = FaultPlan.from_shorthand([
            "fail@2000-120000:link=ft:up0.0",
            "fail@2000-120000:link=ft:up0.1",
            "fail@2000-120000:link=ft:up0.2",
        ])
        FaultInjector(sim, net, plan).start()
        failed = [l for l in net.links
                  if l.name in ("ft:up0.0", "ft:up0.1", "ft:up0.2")]
        assert len(failed) == 3
        feed(sim, nics[0], stream(0, 9, 40, {"bulk_threshold": 10 ** 9}),
             every=100)
        delivered = drain_all(sim, nics, 40, horizon=1_000_000)
        assert [p.pair_seq for p in delivered] == list(range(40))
        carried_at_repair = {id(l): l.flits_carried for l in failed}
        # Keep streaming after the repair: the revived links are reclaimed.
        feed(sim, nics[0], stream(0, 9, 40, {"bulk_threshold": 10 ** 9}),
             every=100)
        drain_all(sim, nics, 40, horizon=1_000_000)
        assert sim.now > 120000
        assert any(
            l.flits_carried > carried_at_repair[id(l)] for l in failed
        ), "no repaired link ever carried traffic again"

    def test_mesh_blocks_then_recovers(self):
        # Deterministic dimension-order mesh: failing the only path stalls
        # the stream; the repair lets it finish with nothing lost and
        # nothing reordered.
        sim, net, nics = lossy_setup(num_nodes=16, network="mesh2d")
        plan = FaultPlan.from_shorthand(["fail@100-60000:link=mesh:1->2"])
        FaultInjector(sim, net, plan).start()
        feed(sim, nics[0], stream(0, 3, 12, {"bulk_threshold": 10 ** 9}),
             every=50)
        delivered = drain_all(sim, nics, 12, horizon=500_000)
        assert [p.pair_seq for p in delivered] == list(range(12))
        assert max(p.delivered_cycle for p in delivered) > 60000

    def test_adaptive_mesh_routes_around_failure(self):
        # Duato-adaptive mesh: with the x-first link out, packets flow via
        # the other profitable dimension *during* the outage.
        sim, net, nics = lossy_setup(num_nodes=16, network="mesh2d-adaptive")
        plan = FaultPlan.from_shorthand(
            ["fail@0-400000:link=adaptive mesh:0->1"]
        )
        FaultInjector(sim, net, plan).start()
        feed(sim, nics[0], stream(0, 5, 12, {"bulk_threshold": 10 ** 9}),
             every=50)
        delivered = drain_all(sim, nics, 12, horizon=300_000)
        assert len(delivered) == 12
        assert max(p.delivered_cycle for p in delivered) < 400000


# ------------------------------------------------------------- loss bursts
class TestLossBurst:
    def test_windowed_burst_recovers_after_stop(self):
        sim, net, nics = lossy_setup(network="fattree")
        plan = FaultPlan.from_shorthand(["burst@0-50000:prob=0.25"])
        FaultInjector(sim, net, plan).start()
        feed(sim, nics[0], stream(0, 9, 30, {"bulk_threshold": 10 ** 9}),
             every=50)
        delivered = drain_all(sim, nics, 30, horizon=2_000_000)
        assert [p.pair_seq for p in delivered] == list(range(30))
        dropped = sum(l.packets_dropped for l in net.links)
        assert dropped > 0
        # After the window closes no link is still configured to drop.
        assert all(l.fault_drop_prob == 0.0 for l in net.links)

    def test_ack_only_loss_exercises_duplicate_elimination(self):
        sim, net, nics = lossy_setup(network="fattree")
        plan = FaultPlan.from_shorthand(["burst@0-300000:prob=0.3,net=ack"])
        FaultInjector(sim, net, plan).start()
        feed(sim, nics[0], stream(0, 9, 25, {"bulk_threshold": 10 ** 9}),
             every=50)
        delivered = drain_all(sim, nics, 25, horizon=2_000_000)
        # Every packet delivered exactly once, in order, despite the lost
        # acks forcing retransmissions of already-delivered data.
        assert [p.pair_seq for p in delivered] == list(range(25))
        assert len({p.uid for p in delivered}) == 25
        assert nics[0].retransmissions > 0
        assert nics[9].duplicates_dropped > 0

    def test_ack_only_burst_never_claims_data(self):
        # Annihilate *every* ack, forever.  Data packets must still cross
        # the fabric untouched: the first packet is delivered (then its
        # retransmits are filtered as duplicates); it is only the missing
        # acks that keep the window shut.
        sim = Simulator()
        rngf = RngFactory(3)
        net = build_network("fattree", sim, 16, rng=rngf.stream("route"))
        for link in net.links:
            link.set_fault_drop(1.0, rng=rngf.stream("x"), data=False,
                                acks=True)
        params = NifdyParams(opt_size=4, pool_size=8, dialogs=1, window=4)
        nics = net.attach_nics(
            lambda n: RetransmittingNifdyNIC(sim, n, params, retx_timeout=500)
        )
        feed(sim, nics[0], stream(0, 9, 3, {"bulk_threshold": 10 ** 9}))
        delivered = drain_all(sim, nics, 3, horizon=10_000)
        assert [p.pair_seq for p in delivered] == [0]
        assert nics[0].retransmissions > 0
        assert nics[9].duplicates_dropped > 0


# ---------------------------------------------------- node pause and resume
class TestNodePause:
    def test_paused_receiver_stalls_then_drains(self):
        plan = FaultPlan.from_shorthand(["pause@1000-40000:node=9"])
        res = run_experiment(ExperimentSpec(
            network="fattree",
            traffic=cshift(),
            num_nodes=16,
            nic_mode="nifdy",
            fault_plan=plan,
            max_cycles=3_000_000,
            seed=2,
        ))
        assert res.completed
        assert res.delivered == res.sent
        assert res.abandoned == 0
        assert res.order_violations == 0


# ------------------------------------------- integration: runner + reporting
class TestRunnerIntegration:
    def test_acceptance_scenario_fail_repair_with_burst(self):
        # The ISSUE's scripted scenario: fail a fat-tree link at N, repair
        # at M, 10% loss burst in between; bulk-heavy all-to-all completes
        # in order with zero software-visible anomalies.
        plan = FaultPlan.from_shorthand([
            "fail@5000-60000:link=ft:up1.0",
            "burst@5000-60000:prob=0.1",
        ])
        res = run_experiment(ExperimentSpec(
            network="fattree",
            traffic=cshift(),
            num_nodes=16,
            nic_mode="nifdy",
            fault_plan=plan,
            max_cycles=5_000_000,
            seed=1,
        ))
        assert res.completed, res.stall_report
        assert res.delivered == res.sent
        assert res.order_violations == 0
        assert res.abandoned == 0
        report = degradation_report(
            metrics=res.metrics,
            nics=res.nics,
            network=res.network_obj,
            cycles=res.cycles,
            boundaries=plan.boundaries(),
            repairs=[(e.at, e.describe()) for e in plan.repairs()],
            timeline=res.fault_injector.timeline,
        )
        assert report.delivered_fraction == 1.0
        assert len(report.phases) == 3  # before / during / after the fault
        assert sum(p.delivered for p in report.phases) == res.delivered
        assert report.retransmissions > 0
        assert len(report.recoveries) == 1
        assert report.recoveries[0].time_to_recover is not None
        assert len(res.fault_injector.timeline) >= 3

    def test_partition_degrades_gracefully_and_watchdog_reports(self):
        # Permanently sever node 9's ejection link: traffic to 9 can never
        # be delivered.  The run must not raise; it either finishes with
        # abandoned packets or the watchdog stops it with a diagnosis.
        plan = FaultPlan.from_shorthand(["fail@2000:link=ft:ej9"])
        res = run_experiment(ExperimentSpec(
            network="fattree",
            traffic=cshift(),
            num_nodes=16,
            nic_mode="nifdy",
            fault_plan=plan,
            retx_timeout=500,
            max_retries=6,
            max_cycles=10_000_000,
            watchdog_cycles=100_000,
            seed=3,
        ))
        assert res.abandoned > 0
        assert res.delivered < res.sent
        # Once every sender has given up on node 9 the fabric goes
        # quiescent with the workload still incomplete: the watchdog must
        # stop the run (long before max_cycles) and explain who is stuck.
        assert not res.completed
        assert res.cycles < 10_000_000
        assert res.stall_report is not None
        assert "node 9" in res.stall_report


# ------------------------------------------------------- healed partitions
def _partition_spec(until=None, seed=3):
    """Node 9's ejection link fails at cycle 1500 (and is repaired at
    ``until``); three retries abandon what is owed to it meanwhile."""
    return ExperimentSpec(
        network="fattree",
        traffic=cshift(CShiftConfig(words_per_phase=8)),
        num_nodes=16,
        nic_mode="nifdy",
        drop_prob=0.005,
        max_retries=3,
        max_cycles=400_000,
        watchdog_cycles=50_000,
        fault_plan=FaultPlan(
            [FaultEvent("link_fail", at=1500, link="ft:ej9", until=until)]
        ),
        seed=seed,
        observe=Observability(events=True, validate=True),
    )


class TestHealedPartition:
    def test_abandoned_packets_delivered_after_repair_are_not_owed_twice(self):
        result = run_experiment(_partition_spec(until=20_000))
        metrics = result.metrics
        assert result.completed, result.stall_report
        assert metrics.in_flight == 0
        assert metrics.sent == metrics.delivered + metrics.abandoned
        assert result.violations == []

    def test_no_packet_injected_after_it_was_abandoned(self, monkeypatch):
        late = []
        start = RetransmittingNifdyNIC._start_injection

        def recording_start(nic, packet):
            started = start(nic, packet)
            if started and 0 <= packet.abandoned_cycle < nic.sim.now:
                late.append((packet.uid, packet.abandoned_cycle, nic.sim.now))
            return started

        monkeypatch.setattr(
            RetransmittingNifdyNIC, "_start_injection", recording_start
        )
        result = run_experiment(_partition_spec(until=20_000))
        assert sum(nic.packets_abandoned for nic in result.nics) > 0
        assert late == []
