"""Tests for the unified instrumentation layer (``repro.obs``).

The load-bearing guarantees: instrumentation must not change what the
simulation does (same seed => same results, observed or not), the
collector's traces and the event bus must see every lifecycle event
exactly once, and the exported JSON must reconcile with the collector's
accounting.
"""

import hashlib
import json

import pytest

from repro.experiments import ExperimentSpec, heavy_synthetic, run_experiment
from repro.faults import FaultPlan
from repro.metrics import LatencyHistogram
from repro.obs import (
    EventBus,
    EventKind,
    Observability,
    ObsEvent,
    chrome_trace,
    metrics_json,
)
from repro.sim import Simulator


def run_small(observe=None, seed=3, cycles=3000, **kw):
    return run_experiment(ExperimentSpec(
        network="fattree", traffic=heavy_synthetic(), num_nodes=16,
        nic_mode="nifdy", run_cycles=cycles, seed=seed, observe=observe, **kw,
    ))


class TestEventBus:
    def test_counts_without_subscribers(self):
        bus = EventBus()
        bus.emit(10, EventKind.INJECT, 0, uid=1)
        bus.emit(11, EventKind.INJECT, 0, uid=2)
        bus.emit(12, EventKind.EJECT, 1, uid=1)
        assert bus.count(EventKind.INJECT) == 2
        assert bus.count(EventKind.EJECT) == 1
        assert bus.total() == 3
        assert bus.events == []  # no buffering unless asked

    def test_subscribe_by_kind_and_wildcard(self):
        bus = EventBus()
        by_kind, all_events = [], []
        bus.subscribe(EventKind.OPT_FULL, by_kind.append)
        bus.subscribe(None, all_events.append)
        bus.emit(5, EventKind.OPT_FULL, 2, dst=7)
        bus.emit(6, EventKind.INJECT, 2)
        assert [e.kind for e in by_kind] == [EventKind.OPT_FULL]
        assert [e.kind for e in all_events] == [EventKind.OPT_FULL,
                                                EventKind.INJECT]
        assert by_kind[0] == ObsEvent(5, EventKind.OPT_FULL, 2, -1, -1, 7, None)

    def test_unknown_kind_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError):
            bus.subscribe("not_a_kind", lambda e: None)

    def test_keep_events_is_bounded(self):
        bus = EventBus(keep_events=3)
        for i in range(5):
            bus.emit(i, EventKind.INJECT, 0, uid=i)
        assert len(bus.events) == 3
        assert bus.dropped_events == 2
        assert bus.count(EventKind.INJECT) == 5  # counting is never capped

    def test_attach_and_detach(self):
        class Thing:
            obs = None

        a, b = Thing(), Thing()
        bus = EventBus()
        bus.attach([a, b], None)
        assert a.obs is bus and b.obs is bus
        bus.detach_all()
        assert a.obs is None and b.obs is None


class TestLatencyHistogram:
    def test_bucket_edges(self):
        hist = LatencyHistogram()
        for v in (0, 1, 2, 3, 4, 7, 8, 1023, 1024):
            hist.note(v)
        labels = dict(hist.rows())
        assert labels["0-1"] == 2          # 0 and 1 share bucket 0
        assert labels["2-3"] == 2
        assert labels["4-7"] == 2          # 4 and 7 bracket bucket 2
        assert labels["8-15"] == 1
        assert labels["512-1023"] == 1     # 1023 is the top of its bucket
        assert labels["1024-2047"] == 1    # 1024 starts the next
        assert hist.count == 9
        assert hist.maximum == 1024

    def test_exact_mean_and_max(self):
        hist = LatencyHistogram()
        for v in (10, 20, 60):
            hist.note(v)
        assert hist.mean == 30.0
        assert hist.maximum == 60

    def test_percentiles_are_bucket_upper_bounds(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.note(4)      # bucket 4-7
        hist.note(1000)       # bucket 512-1023
        assert hist.p50 == 7
        assert hist.p90 == 7
        assert hist.percentile(1.0) == 1000  # clamped to the exact max
        assert hist.p99 == 7  # the 99th sample is still in the low bucket

    def test_empty_and_negative(self):
        hist = LatencyHistogram()
        assert hist.p50 == 0 and hist.mean == 0.0
        with pytest.raises(ValueError):
            hist.note(-1)
        with pytest.raises(ValueError):
            hist.percentile(0.0)

    def test_to_dict_round_trips_through_json(self):
        hist = LatencyHistogram()
        hist.note(5)
        doc = json.loads(json.dumps(hist.to_dict()))
        assert doc["count"] == 1 and doc["max"] == 5


class TestHookComposition:
    """The collector's counts, its packet traces and the event bus must
    each see every lifecycle event exactly once."""

    def test_all_three_consumers_agree(self):
        observe = Observability(events=True, trace=True)
        result = run_small(observe)
        metrics, bus = result.metrics, observe.bus
        assert result.delivered > 0
        # The collector's counts are the ground truth...
        assert metrics.delivered == result.delivered
        # ...the bus counted the same inject/accept stream...
        assert bus.count(EventKind.ACCEPT) == metrics.delivered
        assert bus.count(EventKind.INJECT) == metrics.injected
        # ...and the traces recorded the same packets.
        accepted = [t for t in metrics.traces.values() if t.accepted >= 0]
        injected = [t for t in metrics.traces.values() if t.injected >= 0]
        assert len(accepted) == metrics.delivered
        assert len(injected) == metrics.injected

    def test_observation_does_not_perturb_the_run(self):
        bare = run_small(None)
        observe = Observability(
            events=True, trace=True, sample_interval=250, profile=True,
        )
        watched = run_small(observe)
        assert watched.delivered == bare.delivered
        assert watched.sent == bare.sent
        assert watched.cycles == bare.cycles
        assert watched.metrics.network_latency.total == \
            bare.metrics.network_latency.total

    def test_eject_recorded_between_inject_and_accept(self):
        observe = Observability(trace=True, events=False)
        result = run_small(observe)
        done = [t for t in result.metrics.traces.values() if t.accepted >= 0]
        assert done
        for t in done:
            assert t.injected <= t.ejected <= t.accepted

    def test_abandon_seen_by_collector_tracer_and_bus(self):
        plan = FaultPlan.from_shorthand(["fail@200-100000:link=*"])
        observe = Observability(events=True, trace=True)
        result = run_experiment(ExperimentSpec(
            network="fattree", traffic=heavy_synthetic(), num_nodes=16,
            nic_mode="nifdy", run_cycles=60_000, seed=3, fault_plan=plan,
            retx_timeout=200, max_retries=3, observe=observe,
        ))
        metrics = result.metrics
        assert metrics.abandoned > 0
        traced = [
            t for t in metrics.traces.values() if t.abandoned >= 0
        ]
        # The abandoned count skips write-offs whose original was
        # delivered; the traces and bus record every abandonment the NICs
        # performed.
        nic_abandoned = sum(n.packets_abandoned for n in result.nics)
        assert observe.bus.count(EventKind.ABANDON) == nic_abandoned
        assert len(traced) == nic_abandoned
        assert nic_abandoned >= metrics.abandoned
        # Accounting still reconciles after the losses.
        assert metrics.sent == \
            metrics.delivered + metrics.abandoned + metrics.in_flight


class TestSampler:
    def test_sampler_deterministic_across_identical_runs(self):
        def sample_run():
            observe = Observability(events=False, sample_interval=200)
            run_small(observe, seed=7)
            return observe.sampler.to_dict()

        assert sample_run() == sample_run()

    def test_sampler_series_shapes(self):
        observe = Observability(events=False, sample_interval=500)
        result = run_small(observe, cycles=2500)
        s = observe.sampler
        # run_until fires events strictly below the horizon, so the final
        # tick at cycle 2500 never runs: cycle 0 plus four interior ticks.
        assert len(s) == 5
        assert all(len(row) == result.num_nodes for row in s.pool_occupancy)
        assert s.peak_in_network() > 0
        assert 0.0 < s.mean_link_busy() <= 1.0
        doc = s.to_dict()
        assert doc["cycles"] == [0, 500, 1000, 1500, 2000]
        assert len(doc["link_busy_mean"]) == len(doc["cycles"])

    def test_different_seeds_differ(self):
        def series(seed):
            observe = Observability(events=False, sample_interval=200)
            run_small(observe, seed=seed)
            return observe.sampler.packets_in_network

        assert series(1) != series(2)


class TestKernelProfileAndPending:
    def test_profiled_run_matches_unprofiled(self):
        bare = run_small(None)
        observe = Observability(events=False, profile=True)
        profiled = run_small(observe)
        assert profiled.delivered == bare.delivered
        profile = observe.kernel_profile
        assert profile.events > 0
        assert profile.loop_seconds > 0
        assert profile.events == sum(c for c, _ in profile.by_handler.values())
        assert "events/sec" in profile.format()

    def test_pending_events_live_count(self):
        sim = Simulator()
        events = [sim.schedule(i + 1, lambda: None) for i in range(5)]
        assert sim.pending_events() == 5
        events[0].cancel()
        events[0].cancel()  # double-cancel must not double-decrement
        assert sim.pending_events() == 4
        sim.run_until(3)  # fires strictly-before-3: the event at cycle 2
        assert sim.pending_events() == 3
        # Cancelling an already-fired event is a no-op for the count.
        events[1].cancel()
        assert sim.pending_events() == 3
        sim.run()
        assert sim.pending_events() == 0


class TestExporters:
    def test_metrics_json_reconciles_and_serialises(self):
        observe = Observability(
            events=True, sample_interval=500, profile=True,
        )
        result = run_small(observe)
        doc = metrics_json(result, run_args={"seed": 3})
        text = json.dumps(doc)  # must be JSON-serialisable as-is
        loaded = json.loads(text)
        totals = loaded["totals"]
        assert totals["sent"] == (
            totals["delivered"] + totals["abandoned"] + totals["in_flight"]
        )
        assert loaded["run"]["args"] == {"seed": 3}
        assert loaded["events"]["accept"] == totals["delivered"]
        assert loaded["latency"]["network"]["p99"] >= \
            loaded["latency"]["network"]["p50"]
        assert loaded["samples"]["interval"] == 500
        assert loaded["self_profile"]["events"] > 0
        # NIC-level injections include protocol traffic (acks), so they
        # bound the collector's data-packet count from above.
        assert loaded["nics"]["packets_injected"] >= totals["injected"]

    def test_chrome_trace_structure(self):
        observe = Observability(events=False, trace=True)
        result = run_small(observe)
        doc = chrome_trace(
            result.metrics,
            fault_windows=[(100, 400, "window"), (50, None, "instant")],
            fault_timeline=[(100, "something happened")],
            run_label="test",
        )
        json.dumps(doc)
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X" and e["cat"] == "packet"]
        names = {e["name"] for e in spans}
        assert {"pool", "network", "rx"} <= names
        assert all(e["dur"] >= 0 for e in spans)
        # every complete packet contributes pool->network->rx spans
        done = [t for t in result.metrics.traces.values() if t.accepted >= 0]
        assert len([e for e in spans if e["name"] == "rx"]) == len(done)
        fault_events = [e for e in events if e.get("cat") == "fault"]
        assert len(fault_events) == 3
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["args"]["name"] == "faults" for e in meta)

    @pytest.mark.parametrize("drop_prob, digest", [
        (0.0, "f2051b3483fbd9c04170e1eb1ace11a8f3fe0ae6aaa7573b90ed0c617e861b79"),
        # Lossy: retransmitted copies and duplicates are ejected too.
        (0.02, "f0dc33196a98971577135a8dcb9efb073402b047ea3e7b28fcf3dbec07fa94bc"),
    ], ids=["lossless", "lossy"])
    def test_chrome_trace_pinned(self, drop_prob, digest):
        """The whole trace document of a fixed run, byte for byte."""
        observe = Observability(events=False, trace=True)
        result = run_small(observe, drop_prob=drop_prob, retx_timeout=300)
        doc = json.loads(json.dumps(chrome_trace(
            result.metrics,
            fault_windows=[(100, 400, "window")],
            fault_timeline=[(100, "something happened")],
            run_label="pin",
        )))
        # Packet uids come from a process-wide counter: rebase them on the
        # run's first traced packet so the digest ignores earlier tests.
        packets = [e for e in doc["traceEvents"] if "uid" in e["args"]]
        base = min(e["args"]["uid"] for e in packets)
        for event in packets:
            event["args"]["uid"] -= base
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_untraced_collector_keeps_no_records(self):
        result = run_small(Observability(events=False, sample_interval=500))
        assert result.metrics.traces is None
