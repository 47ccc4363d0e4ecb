"""Tests for the invariant monitor: clean runs stay clean, broken NICs get
caught, and the monitor costs nothing when detached."""

import pytest

from repro.experiments import ExperimentSpec, run_experiment
from repro.nic import (
    BaseNIC,
    NifdyNIC,
    NifdyParams,
    ReorderParams,
    ReorderTolerantNIC,
)
from repro.obs import EventBus, EventKind, Observability
from repro.sim import Simulator
from repro.traffic import (
    AllReduceConfig,
    CrashPointConfig,
    CShiftConfig,
    Em3dConfig,
    HotSpotConfig,
    IncastConfig,
    PairStreamConfig,
    RadixSortConfig,
    RpcFanoutConfig,
    SyntheticConfig,
    TrafficSpec,
    traffic_names,
)
from repro.validate import INVARIANTS, InvariantMonitor, InvariantViolation


# Small configs so the full workload matrix stays fast; fixed horizons for
# the open-ended synthetic loads.
_SMALL_CONFIGS = {
    "heavy": SyntheticConfig.heavy_traffic(max_phases=3),
    "light": SyntheticConfig.light_traffic(max_phases=3),
    "cshift": CShiftConfig(words_per_phase=48),
    "em3d": Em3dConfig.light_communication(scale=0.05, iterations=1),
    "radix": RadixSortConfig(buckets=64, keys_per_processor=32),
    "hotspot": HotSpotConfig(packets_per_node=40),
    "pairstream": PairStreamConfig(packets=40, bulk=True),
    "incast": IncastConfig(rounds=2, packets_per_round=4),
    "rpc": RpcFanoutConfig(rounds=2, fanout=4, reply_packets=2),
    # Host-combine by default here; the NIC-offloaded variant has its own
    # dedicated coverage in tests/test_collectives.py.
    "allreduce": AllReduceConfig(rounds=3),
    # Disarmed (after_packets == packets): a clean pair stream.
    "crashpoint": CrashPointConfig(packets=40, after_packets=40),
}


def _spec_for(name: str) -> ExperimentSpec:
    config = _SMALL_CONFIGS[name]
    fixed_horizon = name in ("heavy", "light")
    return ExperimentSpec(
        network="fattree",
        traffic=TrafficSpec(name, config),
        num_nodes=16,
        run_cycles=30_000 if fixed_horizon else None,
        observe=Observability(validate=True),
    )


class TestCleanWorkloads:
    """Every registered workload, lossless fabric: zero violations."""

    def test_matrix_covers_every_registered_workload(self):
        # If a new workload is registered without a small config here, this
        # test (not silence) is what fails.
        assert set(_SMALL_CONFIGS) == set(traffic_names())

    @pytest.mark.parametrize("name", sorted(_SMALL_CONFIGS))
    def test_workload_is_violation_free(self, name):
        result = run_experiment(_spec_for(name))
        monitor = result.obs.monitor
        assert monitor is not None and monitor.events_checked > 0
        assert result.violations == [], monitor.summary()
        if name not in ("heavy", "light"):
            assert result.completed

    def test_strict_mode_passes_clean_run(self):
        spec = _spec_for("cshift").replace(
            observe=Observability(validate=True, validate_strict=True),
        )
        result = run_experiment(spec)
        assert result.violations == []


class TestDetachedCost:
    def test_unobserved_run_keeps_obs_none(self):
        # The whole obs layer (monitor included) must be invisible unless
        # asked for: every NIC keeps the obs=None fast path.
        result = run_experiment(_spec_for("cshift").replace(observe=None))
        assert all(nic.obs is None for nic in result.nics)
        assert result.violations == []

    def test_validate_false_attaches_no_monitor(self):
        result = run_experiment(
            _spec_for("cshift").replace(observe=Observability(events=True))
        )
        assert result.obs.monitor is None
        assert result.violations == []


# ---------------------------------------------------------------------------
# Broken-NIC fixture: corrupt a real NifdyNIC's state / fake its events and
# prove each invariant actually fires.
# ---------------------------------------------------------------------------

class _FakePacket:
    def __init__(self, uid, src, dst, pair_seq=-1, seq=-1, abandoned_cycle=-1):
        self.uid = uid
        self.src = src
        self.dst = dst
        self.pair_seq = pair_seq
        self.seq = seq
        self.abandoned_cycle = abandoned_cycle


@pytest.fixture()
def rig():
    """(bus, monitor, nics): two real NifdyNICs under a wildcard monitor."""
    sim = Simulator()
    params = NifdyParams(opt_size=2, pool_size=2, dialogs=1, window=2)
    nics = [NifdyNIC(sim, node, params) for node in range(2)]
    bus = EventBus()
    bus.attach(nics)
    monitor = InvariantMonitor(check_order=True).attach(bus, nics)
    return bus, monitor, nics


def _names(monitor):
    return {violation.invariant for violation in monitor.violations}


class TestBrokenNic:
    def test_exactly_once_fires_on_double_accept(self, rig):
        bus, monitor, _ = rig
        packet = _FakePacket(uid=7, src=0, dst=1)
        bus.emit_packet(10, EventKind.ACCEPT, 1, packet)
        bus.emit_packet(20, EventKind.ACCEPT, 1, packet)
        assert "exactly_once" in _names(monitor)
        violation = monitor.violations[0]
        assert violation.uid == 7 and violation.cycle == 20

    def test_in_order_fires_on_seq_regression(self, rig):
        bus, monitor, _ = rig
        bus.emit_packet(10, EventKind.ACCEPT, 1, _FakePacket(1, 0, 1, pair_seq=4))
        bus.emit_packet(20, EventKind.ACCEPT, 1, _FakePacket(2, 0, 1, pair_seq=3))
        assert "in_order" in _names(monitor)

    def test_in_order_tracks_pairs_independently(self, rig):
        bus, monitor, _ = rig
        bus.emit_packet(10, EventKind.ACCEPT, 1, _FakePacket(1, 0, 1, pair_seq=4))
        # A different (src, dst) pair restarting at 0 is NOT a violation.
        bus.emit_packet(20, EventKind.ACCEPT, 0, _FakePacket(2, 1, 0, pair_seq=0))
        assert monitor.ok

    def test_opt_bound_fires_on_overfill(self, rig):
        bus, monitor, nics = rig
        nics[0].opt._entries.update({1, 2, 3})  # capacity is 2
        bus.emit(30, EventKind.OPT_HIT, 0)
        assert "opt_bound" in _names(monitor)
        assert "O=2" in monitor.violations[0].detail

    def test_pool_bound_fires_on_overfill(self, rig):
        bus, monitor, nics = rig
        pool = nics[0].pool
        for uid in range(3):  # capacity is 2; bypass insert()'s guard
            from collections import deque

            pool._queues.setdefault(uid + 1, deque()).append(
                _FakePacket(uid, 0, uid + 1)
            )
            pool._count += 1
        bus.emit(30, EventKind.POOL_ENQUEUE, 0)
        assert "pool_bound" in _names(monitor)

    def test_dialog_and_window_bounds_fire(self, rig):
        from repro.nic.bulk import BulkReceiverDialog

        bus, monitor, nics = rig
        nic = nics[1]
        overfull = BulkReceiverDialog(src=0, dialog=0, window=2)
        overfull.buffers = {0: object(), 1: object(), 2: object()}
        nic.rx_dialogs[(0, 0)] = overfull
        nic.rx_dialogs[(0, 1)] = BulkReceiverDialog(src=0, dialog=1, window=2)
        bus.emit(40, EventKind.DIALOG_GRANT, 1)
        assert {"dialog_bound", "window_bound"} <= _names(monitor)

    def test_ack_conservation_fires_at_finish(self, rig):
        _, monitor, nics = rig
        nics[0].acks_received = 5  # nobody ever sent an ack
        monitor.finish(cycle=100)
        assert "ack_conservation" in _names(monitor)

    def test_no_silent_loss_fires_for_vanished_packet(self, rig):
        bus, monitor, _ = rig
        bus.emit_packet(10, EventKind.INJECT, 0, _FakePacket(9, 0, 1))
        monitor.finish(check_loss=True, cycle=100)
        assert "no_silent_loss" in _names(monitor)
        assert monitor.violations[0].uid == 9

    def test_no_silent_loss_accepts_abandonment(self, rig):
        bus, monitor, _ = rig
        packet = _FakePacket(9, 0, 1)
        bus.emit_packet(10, EventKind.INJECT, 0, packet)
        bus.emit_packet(50, EventKind.ABANDON, 0, packet)
        monitor.finish(check_loss=True, cycle=100)
        assert monitor.ok  # explicitly abandoned is accounted-for, not lost

    def test_no_silent_loss_skipped_for_truncated_runs(self, rig):
        bus, monitor, _ = rig
        bus.emit_packet(10, EventKind.INJECT, 0, _FakePacket(9, 0, 1))
        monitor.finish(check_loss=False, cycle=100)
        assert monitor.ok

    def test_strict_mode_raises_with_structured_violation(self, rig):
        bus, _, nics = rig
        strict = InvariantMonitor(strict=True).attach(bus, nics)
        packet = _FakePacket(uid=3, src=0, dst=1)
        bus.emit_packet(10, EventKind.ACCEPT, 1, packet)
        with pytest.raises(InvariantViolation) as excinfo:
            bus.emit_packet(11, EventKind.ACCEPT, 1, packet)
        assert excinfo.value.violation.invariant == "exactly_once"
        assert excinfo.value.violation.uid == 3

    def test_state_breaches_dedupe_per_node(self, rig):
        bus, monitor, nics = rig
        nics[0].opt._entries.update({1, 2, 3})
        for cycle in range(10):
            bus.emit(cycle, EventKind.OPT_HIT, 0)
        assert len([v for v in monitor.violations
                    if v.invariant == "opt_bound"]) == 1

    def test_every_invariant_is_exercised_somewhere(self):
        # The fixture tests above (and TestBrokenReorderNic) must
        # collectively cover the full list.
        covered = {
            "exactly_once", "in_order", "opt_bound", "pool_bound",
            "dialog_bound", "window_bound", "ack_conservation",
            "no_silent_loss", "no_double_contribution",
            "release_after_all_arrive", "collective_completion",
            "reorder_window_bound", "bitmap_conservation",
            "no_cache_leak",
        }
        assert covered == set(INVARIANTS)

    def test_violations_are_json_ready(self, rig):
        import json

        bus, monitor, _ = rig
        packet = _FakePacket(uid=7, src=0, dst=1)
        bus.emit_packet(10, EventKind.ACCEPT, 1, packet)
        bus.emit_packet(20, EventKind.ACCEPT, 1, packet)
        payload = json.dumps([v.to_dict() for v in monitor.violations])
        assert "exactly_once" in payload


# ---------------------------------------------------------------------------
# Broken collectives: fake combining-tree events (and a stub engine) and
# prove the collective invariants actually fire.
# ---------------------------------------------------------------------------

class _StubEngine:
    def __init__(self, children, pending=()):
        self.children = list(children)
        self._epochs = {e: object() for e in pending}

    @property
    def pending_epochs(self):
        return len(self._epochs)


class _StubCollectiveNic(BaseNIC):
    """A NIC with nothing but a collective engine: the declared NIC state
    (no OPT, pool, dialogs or streams) comes from BaseNIC."""

    def __init__(self, node_id, engine):
        super().__init__(Simulator(), node_id)
        self.collective = engine


class TestBrokenCollectives:
    def _rig(self, engine):
        bus = EventBus()
        nics = [_StubCollectiveNic(0, engine)]
        monitor = InvariantMonitor().attach(bus, nics)
        return bus, monitor

    def test_double_contribution_fires(self):
        bus, monitor = self._rig(_StubEngine(children=[1, 2]))
        bus.emit(10, EventKind.COLL_CONTRIB, 0, src=1, seq=0)
        bus.emit(20, EventKind.COLL_CONTRIB, 0, src=1, seq=0)
        assert [v.invariant for v in monitor.violations] == [
            "no_double_contribution"
        ]

    def test_same_child_across_epochs_is_fine(self):
        bus, monitor = self._rig(_StubEngine(children=[1, 2]))
        bus.emit(10, EventKind.COLL_CONTRIB, 0, src=1, seq=0)
        bus.emit(20, EventKind.COLL_CONTRIB, 0, src=1, seq=1)
        assert monitor.ok

    def test_early_release_fires(self):
        bus, monitor = self._rig(_StubEngine(children=[1, 2]))
        bus.emit(10, EventKind.COLL_CONTRIB, 0, src=0, seq=0)
        bus.emit(20, EventKind.COLL_CONTRIB, 0, src=1, seq=0)
        # child 2 never contributed, yet the node releases.
        bus.emit(30, EventKind.COLL_RELEASE, 0, src=0, seq=0)
        assert [v.invariant for v in monitor.violations] == [
            "release_after_all_arrive"
        ]

    def test_complete_release_is_clean(self):
        bus, monitor = self._rig(_StubEngine(children=[1, 2]))
        for src in (0, 1, 2):
            bus.emit(10, EventKind.COLL_CONTRIB, 0, src=src, seq=0)
        bus.emit(30, EventKind.COLL_RELEASE, 0, src=0, seq=0)
        assert monitor.ok

    def test_pending_epoch_at_run_end_fires(self):
        bus, monitor = self._rig(_StubEngine(children=[1], pending=(3,)))
        monitor.finish(check_loss=True, cycle=100)
        assert [v.invariant for v in monitor.violations] == [
            "collective_completion"
        ]

    def test_pending_epoch_skipped_for_truncated_runs(self):
        bus, monitor = self._rig(_StubEngine(children=[1], pending=(3,)))
        monitor.finish(check_loss=False, cycle=100)
        assert monitor.ok


# ---------------------------------------------------------------------------
# Broken reorder-tolerant receivers: corrupt a real ReorderTolerantNIC's
# stream state and prove the reorder invariants actually fire.
# ---------------------------------------------------------------------------

def _reorder_rig(policy: str):
    sim = Simulator()
    params = ReorderParams(tx_window=2, rx_window=4, cache_capacity=2)
    nics = [
        ReorderTolerantNIC(sim, node, policy=policy, params=params)
        for node in range(2)
    ]
    bus = EventBus()
    bus.attach(nics)
    monitor = InvariantMonitor(check_order=True).attach(bus, nics)
    return bus, monitor, nics


class TestBrokenReorderNic:
    def test_clean_reorder_nic_flags_nothing(self):
        bus, monitor, _ = _reorder_rig("bitmap")
        bus.emit(10, EventKind.OPT_HIT, 1)
        monitor.finish(cycle=100)
        assert monitor.ok

    def test_reorder_window_bound_fires_on_runaway_buffer(self):
        bus, monitor, nics = _reorder_rig("window")
        st = nics[1]._rx_stream(0)  # rx_window=4, expect=0
        for seq in range(100, 110):
            st.buffer[seq] = _FakePacket(seq, 0, 1, seq=seq)
        nics[1]._cached = len(st.buffer)
        bus.emit(30, EventKind.OPT_HIT, 1)
        assert "reorder_window_bound" in _names(monitor)
        assert "rx_window=4" in monitor.violations[0].detail

    def test_bitmap_conservation_fires_on_stale_bitmap(self):
        bus, monitor, nics = _reorder_rig("bitmap")
        st = nics[1]._rx_stream(0)
        st.buffer[2] = _FakePacket(2, 0, 1, seq=2)  # bitmap left empty
        nics[1]._cached = 1
        bus.emit(30, EventKind.OPT_HIT, 1)
        assert "bitmap_conservation" in _names(monitor)

    def test_no_cache_leak_fires_on_counter_drift(self):
        bus, monitor, nics = _reorder_rig("bitmap")
        nics[1]._cached = 5  # buffers are empty
        bus.emit(30, EventKind.OPT_HIT, 1)
        assert "no_cache_leak" in _names(monitor)

    def test_no_cache_leak_fires_on_dropcache_overflow(self):
        bus, monitor, nics = _reorder_rig("dropcache")
        st = nics[1]._rx_stream(0)
        for seq in (1, 2, 3):  # cache_capacity is 2
            st.buffer[seq] = _FakePacket(seq, 0, 1, seq=seq)
        nics[1]._cached = 3
        bus.emit(30, EventKind.OPT_HIT, 1)
        assert "no_cache_leak" in _names(monitor)
        assert "capacity 2" in monitor.violations[0].detail

    def test_no_cache_leak_fires_for_packet_stranded_at_finish(self):
        bus, monitor, nics = _reorder_rig("bitmap")
        st = nics[1]._rx_stream(0)
        st.buffer[2] = _FakePacket(uid=9, src=0, dst=1, seq=2)
        st.bitmap.add(2)
        nics[1]._cached = 1
        monitor.finish(check_loss=True, cycle=100)
        assert "no_cache_leak" in _names(monitor)
        assert monitor.violations[0].uid == 9

    def test_finish_accepts_cached_packet_its_sender_abandoned(self):
        bus, monitor, nics = _reorder_rig("bitmap")
        st = nics[1]._rx_stream(0)
        st.buffer[2] = _FakePacket(9, 0, 1, seq=2, abandoned_cycle=50)
        st.bitmap.add(2)
        nics[1]._cached = 1
        monitor.finish(check_loss=True, cycle=100)
        assert monitor.ok

    def test_in_order_gated_per_receiver(self):
        """On a reordering fabric (fabric_in_order=False) the monitor holds
        order-restoring NICs to in-order delivery but exempts plain ones."""
        from repro.nic import PlainNIC

        sim = Simulator()
        nics = [
            PlainNIC(sim, 0),
            ReorderTolerantNIC(sim, 1, policy="window", params=ReorderParams()),
        ]
        bus = EventBus()
        bus.attach(nics)
        monitor = InvariantMonitor(
            check_order=True, fabric_in_order=False,
        ).attach(bus, nics)
        # Regression at the plain NIC: the fabric may reorder, no violation.
        bus.emit_packet(10, EventKind.ACCEPT, 0, _FakePacket(1, 1, 0, pair_seq=4))
        bus.emit_packet(20, EventKind.ACCEPT, 0, _FakePacket(2, 1, 0, pair_seq=3))
        assert monitor.ok
        # The same regression at the reorder-tolerant NIC is a broken promise.
        bus.emit_packet(30, EventKind.ACCEPT, 1, _FakePacket(3, 0, 1, pair_seq=4))
        bus.emit_packet(40, EventKind.ACCEPT, 1, _FakePacket(4, 0, 1, pair_seq=3))
        assert "in_order" in _names(monitor)
