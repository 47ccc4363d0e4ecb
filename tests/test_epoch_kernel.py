"""Epoch kernel and scheduler-registry tests.

The epoch kernel (the default) stores fire-and-forget work as bare
``(fn, args)`` records in the calendar ring instead of ``Event`` objects.
These tests pin down the parts generic kernel semantics
(tests/test_kernel.py, parametrized over every registered scheduler) and
whole-run parity (tests/test_scheduler_parity.py) don't reach directly:
registry behaviour, the one default kernel, heap/ring interleaving,
cancellation alongside ring records, and mid-run faults.
"""

import json

import pytest

from conftest import KERNEL_CASES, kernel_case
from repro.cli import build_parser
from repro.experiments import ExperimentSpec, run_experiment
from repro.faults import FaultPlan
from repro.links import Link
from repro.obs import Observability, metrics_json
from repro.sim import (
    DEFAULT_SCHEDULER,
    Scheduler,
    Simulator,
    register_scheduler,
    resolve_scheduler,
    scheduler_descriptions,
    scheduler_names,
)
from repro.sim.kernel import _WINDOW, EpochSimulator, HeapSimulator
from repro.traffic import TrafficSpec


# ------------------------------------------------------------------ registry
class TestSchedulerRegistry:
    def test_registered_names_and_order(self):
        # The default ring kernel first, then the heap spec.
        assert scheduler_names()[:2] == ("epoch", "heap")

    def test_default_is_registered(self):
        assert DEFAULT_SCHEDULER in scheduler_names()

    def test_one_default_everywhere(self):
        spec = ExperimentSpec(network="fattree", traffic=TrafficSpec("heavy"))
        args = build_parser().parse_args(["run", "--network", "fattree"])
        assert spec.kernel == DEFAULT_SCHEDULER
        assert args.kernel == DEFAULT_SCHEDULER
        assert Simulator().scheduler == DEFAULT_SCHEDULER

    def test_removed_kernel_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel 'bucket'") as err:
            ExperimentSpec(network="fattree", traffic=TrafficSpec("heavy"),
                           kernel="bucket")
        for name in scheduler_names():
            assert repr(name) in str(err.value)
        # A manifest's spec dict goes through the same validation.
        data = ExperimentSpec(network="fattree",
                              traffic=TrafficSpec("heavy")).to_dict()
        data["kernel"] = "bucket"
        with pytest.raises(ValueError, match="unknown kernel 'bucket'"):
            ExperimentSpec.from_dict(data)

    def test_resolve(self):
        assert resolve_scheduler("heap") is HeapSimulator
        assert resolve_scheduler("epoch") is EpochSimulator

    def test_resolve_unknown_lists_choices(self):
        with pytest.raises(ValueError, match="choose from"):
            resolve_scheduler("fifo")

    def test_reregistering_same_class_is_noop(self):
        before = scheduler_names()
        register_scheduler(EpochSimulator)
        assert scheduler_names() == before

    def test_name_collision_rejected(self):
        class Impostor(Scheduler):
            name = "epoch"

        with pytest.raises(ValueError, match="already registered"):
            register_scheduler(Impostor)

    def test_descriptions_cover_every_kernel(self):
        desc = scheduler_descriptions()
        assert set(desc) == set(scheduler_names())
        assert all(desc.values())

    def test_simulator_dispatches_on_name(self):
        assert type(Simulator()) is resolve_scheduler(DEFAULT_SCHEDULER)
        assert type(Simulator("heap")) is HeapSimulator
        assert type(Simulator("epoch")) is EpochSimulator
        assert Simulator("epoch").scheduler == "epoch"

    def test_simulator_rejects_unknown(self):
        with pytest.raises(ValueError):
            Simulator("fifo")

    def test_subclass_constructs_directly(self):
        # Bypassing the registry dispatch must still work (tests do this).
        assert type(EpochSimulator()) is EpochSimulator


# ------------------------------------------------- epoch ordering semantics
class TestEpochOrdering:
    def test_ring_tokens_fire_in_post_order(self):
        sim = Simulator("epoch")
        fired = []
        for i in range(8):
            sim.post(3, fired.append, i)
        sim.run_until(4)
        assert fired == list(range(8))

    def test_heap_events_drain_before_ring_tokens(self):
        # A far event (scheduled beyond the ring window, so it lives in the
        # heap) must fire before same-cycle ring tokens: it was necessarily
        # scheduled earlier, hence has a lower global sequence number.
        sim = Simulator("epoch")
        fired = []
        horizon = _WINDOW + 5
        sim.post(horizon, fired.append, "far")

        def late_post():
            sim.post(1, fired.append, "near")

        sim.post(horizon - 1, late_post)
        sim.run_until(horizon + 1)
        assert fired == ["far", "near"]

    def test_at_events_interleave_with_tokens_in_schedule_order(self):
        sim = Simulator("epoch")
        fired = []
        sim.post(2, fired.append, "token-a")
        sim.at(sim.now + 2, fired.append, "event")
        sim.post(2, fired.append, "token-b")
        sim.run_until(3)
        assert fired == ["token-a", "event", "token-b"]

    def test_cancelled_event_skipped_between_tokens(self):
        sim = Simulator("epoch")
        fired = []
        sim.post(2, fired.append, "before")
        victim = sim.at(sim.now + 2, fired.append, "victim")
        sim.post(2, fired.append, "after")
        victim.cancel()
        sim.run_until(3)
        assert fired == ["before", "after"]
        assert sim.pending_events() == 0

    def test_token_posts_track_live_count(self):
        sim = Simulator("epoch")
        sim.post(1, lambda: None)
        sim.post(_WINDOW + 10, lambda: None)
        assert sim.pending_events() == 2
        sim.run_until(2)
        assert sim.pending_events() == 1


# ----------------------------------------------------- faults during runs
def _fault_metrics(kernel: str) -> str:
    """Heavy traffic with a link failing and repairing mid-run plus a loss
    burst: fail/repair and fault-drop transitions land while packets are
    streaming across the affected links."""
    spec = ExperimentSpec(
        network="fattree",
        traffic=TrafficSpec("heavy"),
        num_nodes=16,
        run_cycles=6000,
        seed=5,
        kernel=kernel,
        observe=Observability(events=True),
        fault_plan=FaultPlan.from_shorthand([
            "fail@1000-2500:link=ft:up0.0",
            "burst@1500-3000:prob=0.2",
        ]),
    )
    result = run_experiment(spec)
    metrics = metrics_json(result)
    metrics.pop("self_profile", None)
    return json.dumps(metrics, sort_keys=True)


@pytest.mark.parametrize("kernel", [k for k in KERNEL_CASES if k != "heap"])
def test_fault_mid_run_parity(kernel, monkeypatch):
    heap = _fault_metrics("heap")
    assert _fault_metrics(kernel_case(kernel, monkeypatch)) == heap


# ------------------------------------------------------ per-VC sink binding
class TestRouterBulkProtocol:
    """The router side of the link/sink contract: ``flit_target``."""

    def test_flit_target_is_bound_input_unit_accept(self):
        from repro.routers.base import Router

        sim = Simulator("epoch")
        router = Router(sim, 0, route_fn=lambda *a: [])
        link = Link(sim, "in", 4, 2, 8, sink=router, sink_port=3)
        router.attach_in_link(3, link)
        target = router.flit_target(3, 1)
        assert target.__self__ is router._input_units[3][1]
        assert link._accept[1] == target
