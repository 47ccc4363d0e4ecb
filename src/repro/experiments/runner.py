"""One-call experiment runner: network + NICs + processors + workload.

This is the API the benchmarks (and examples) use.  A *traffic factory*
builds one driver per node; the runner assembles everything, runs either
for a fixed horizon (the synthetic throughput experiments) or to workload
completion (C-shift, EM3D, radix sort), and returns an
:class:`ExperimentResult`.

NIC modes (matching the bars of Figures 2/3 and 6-9):

=============  ============================================================
``plain``      bare network interface, backpressure-only flow control
``buffered``   NIFDY's buffer budget, no protocol ("buffers only")
``nifdy-``     the NIFDY protocol, software NOT exploiting in-order delivery
``nifdy``      protocol + in-order-aware communication library
=============  ============================================================

On topologies that deliver in order by construction (2D mesh with one VC,
butterfly) the in-order-aware library is used for every mode, exactly as
the paper does.

Fault injection: pass a :class:`~repro.faults.FaultPlan` and the runner
attaches a :class:`~repro.faults.FaultInjector`, switches the NIFDY modes to
the retransmitting variant, and arms a liveness watchdog -- a run that goes
quiescent while packets are still owed is stopped and diagnosed (which
node/dialog is stuck) instead of silently burning its ``max_cycles``.
Retry exhaustion degrades gracefully in experiment runs: the NIC abandons
the packet, the metrics record it, and the sender's driver is notified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..faults import FaultInjector, FaultPlan
from ..metrics import CongestionTracker, MetricsCollector, PacketTracer
from ..networks import build_network
from ..obs import EventBus, Observability, StateSampler
from ..nic import (
    REORDER_NIC_MODES,
    BufferedNIC,
    CollectiveEngine,
    CollectiveTree,
    HostCollective,
    NifdyNIC,
    NifdyParams,
    PlainNIC,
    ReorderParams,
    ReorderTolerantNIC,
    RetransmittingNifdyNIC,
)
from ..node import CM5_TIMING, Processor, Timing, TrafficDriver
from ..sim import Barrier, RngFactory, Simulator
from .configs import best_params
from .spec import ExperimentSpec

NIC_MODES = (
    "plain", "buffered", "nifdy", "nifdy-",
    # Reorder-tolerant receivers (the multipath scenario pack): same windowed
    # sender, three receiver recovery policies.
    "reorder-window", "reorder-bitmap", "reorder-jain",
)

#: A traffic factory: (node_id, num_nodes, rng_factory, exploit_inorder) -> driver.
TrafficFactory = Callable[[int, int, RngFactory, bool], TrafficDriver]


class IdleDriver(TrafficDriver):
    """Driver for unpopulated nodes: no work, but the processor still polls
    (used when a workload runs on a subset of a larger fabric, like the
    paper's 32-node C-shift on the CM-5 fat tree)."""

    def next_action(self):
        from ..node import Done

        return Done()

    def on_packet(self, packet):
        raise RuntimeError("idle node received a data packet")


@dataclass
class ExperimentResult:
    """What one simulation run produced."""

    network: str
    nic_mode: str
    num_nodes: int
    cycles: int
    sent: int
    delivered: int
    completed: bool
    order_violations: int
    mean_network_latency: float
    mean_total_latency: float
    abandoned: int = 0
    stall_report: Optional[str] = None
    #: Protocol-invariant breaches (as dicts) found by the
    #: :class:`~repro.validate.InvariantMonitor` when
    #: ``observe.validate`` was on; empty otherwise.
    violations: List[Dict] = field(default_factory=list)
    drivers: List[TrafficDriver] = field(repr=False, default_factory=list)
    processors: List[Processor] = field(repr=False, default_factory=list)
    nics: List = field(repr=False, default_factory=list)
    network_obj: Optional[object] = field(repr=False, default=None)
    congestion: Optional[CongestionTracker] = field(repr=False, default=None)
    metrics: Optional[MetricsCollector] = field(repr=False, default=None)
    fault_injector: Optional[FaultInjector] = field(repr=False, default=None)
    obs: Optional[Observability] = field(repr=False, default=None)

    @property
    def throughput(self) -> float:
        """Packets delivered per 1000 cycles (the Figures 2/3 metric,
        rescaled from the paper's per-1M-cycles window)."""
        return 1000.0 * self.delivered / self.cycles if self.cycles else 0.0

    def run_stats(self):
        """This result as a schema :class:`~repro.report.schema.RunStats`:
        the slim, JSON-ready shape shared by the sweep cache, the
        ``--json`` CLI outputs, and ``repro report`` (no live simulator
        objects)."""
        from ..report.schema import RunStats  # deferred: keep import light

        return RunStats.from_result(self)

    def latency_percentiles(self) -> Dict[str, int]:
        """p50/p90/p99/max of both latency histograms (zeros if the
        collector was discarded)."""
        out: Dict[str, int] = {}
        for name in ("network", "total"):
            hist = getattr(self.metrics, f"{name}_latency", None)
            for p in ("p50", "p90", "p99"):
                out[f"{name}_{p}"] = getattr(hist, p, 0)
            out[f"{name}_max"] = getattr(hist, "maximum", 0)
        return out


def make_nic_factory(
    sim: Simulator,
    nic_mode: str,
    params: NifdyParams,
    lossy: bool = False,
    retx_timeout: int = 1000,
    on_exhaust: str = "abandon",
    max_retries: int = 50,
    reorder_params: Optional[ReorderParams] = None,
) -> Callable[[int], object]:
    """NIC constructor for ``nic_mode`` (see module docstring)."""
    if nic_mode == "plain":
        return lambda node: PlainNIC(sim, node)
    if nic_mode == "buffered":
        total = params.total_buffers
        return lambda node: BufferedNIC(sim, node, total_buffers=total)
    if nic_mode in ("nifdy", "nifdy-"):
        if lossy:
            return lambda node: RetransmittingNifdyNIC(
                sim, node, params, retx_timeout=retx_timeout,
                on_exhaust=on_exhaust, max_retries=max_retries,
            )
        return lambda node: NifdyNIC(sim, node, params)
    if nic_mode in REORDER_NIC_MODES:
        policy = REORDER_NIC_MODES[nic_mode]
        return lambda node: ReorderTolerantNIC(
            sim, node, policy=policy, params=reorder_params,
            retx_timeout=retx_timeout, on_exhaust=on_exhaust,
            max_retries=max_retries,
        )
    raise ValueError(f"unknown NIC mode {nic_mode!r}; choose from {NIC_MODES}")


def describe_stall(nics, processors, metrics) -> str:
    """Explain a quiescent-but-incomplete run: which node, which packet,
    which dialog.  This is the liveness watchdog's post-mortem."""
    lines = [
        f"stalled with {metrics.in_flight} packet(s) owed "
        f"(sent={metrics.sent}, delivered={metrics.delivered}, "
        f"abandoned={metrics.abandoned})"
    ]
    for node, (nic, proc) in enumerate(zip(nics, processors)):
        issues = []
        if not proc.done:
            issues.append("driver not done")
        if getattr(proc, "_paused", False):
            issues.append("processor paused")
        hold = getattr(nic, "_hold", None)
        if hold:
            for key, held in list(hold.items())[:4]:
                packet, _, tries = held[0], held[1], held[2]
                if key[0] == "s":
                    what = f"scalar to {packet.dst}"
                elif key[0] == "r":
                    what = f"stream seq {key[2]} to {packet.dst}"
                else:
                    what = f"bulk dialog {key[2]} seq {key[3]} to {packet.dst}"
                issues.append(f"retransmitting {what} ({tries} tries so far)")
        outstanding = getattr(nic, "opt", None)
        if outstanding is not None and len(outstanding):
            issues.append(
                "unacked scalar destinations: "
                + ", ".join(str(d) for d in sorted(outstanding))
            )
        dialogs = getattr(nic, "_rx_dialogs", None)
        if dialogs:
            for dialog in dialogs.values():
                issues.append(
                    f"rx dialog #{dialog.dialog} from {dialog.src} waiting for "
                    f"seq {dialog.next_deliver_seq} "
                    f"({len(dialog.buffers)} buffered)"
                )
        pool = getattr(nic, "pool", None)
        if pool is not None and len(pool):
            issues.append(f"{len(pool)} packet(s) queued in the pool")
        if issues:
            lines.append(f"  node {node}: " + "; ".join(issues))
    if len(lines) == 1:
        lines.append("  (no per-node protocol state pending; likely a driver "
                     "waiting on traffic that was lost or abandoned)")
    return "\n".join(lines)


def run_experiment(spec: ExperimentSpec, *extra, **kwargs) -> ExperimentResult:
    """Run one experiment described by an :class:`ExperimentSpec`.

    The spec is the only argument: anything else raises ``TypeError``.

    ``spec.run_cycles`` set: run exactly that horizon and report
    throughput (Figures 2/3).  Unset: run until every driver is done and
    all sent packets are delivered (C-shift/EM3D/radix), bounded by
    ``max_cycles``.

    ``active_nodes`` runs the workload on only the first N nodes of a
    larger fabric (a partially-populated machine, like the paper's 32-node
    CM-5 runs); the remaining nodes idle but stay responsive.

    ``fault_plan`` injects structured faults (see :mod:`repro.faults`); the
    NIFDY modes then use the retransmitting NIC.  ``watchdog_cycles`` is
    the liveness horizon for run-to-completion workloads: a run with no
    packet movement for that long while work is still owed is declared
    stalled (``result.stall_report`` says what is stuck) rather than
    simulated to ``max_cycles``.  Set to 0 to disable.

    ``observe`` (an :class:`~repro.obs.Observability`) turns on the
    instrumentation layer: the protocol event bus, periodic state sampling,
    per-packet lifecycle tracing (for Chrome-trace export), and kernel
    self-profiling.  The same object comes back as ``result.obs`` with its
    live handles (``bus``/``sampler``/``tracer``/``kernel_profile``)
    filled in for the exporters.
    """
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            "run_experiment takes an ExperimentSpec, not "
            f"{type(spec).__name__}"
        )
    if extra or kwargs:
        raise TypeError(
            "run_experiment(spec) takes no further arguments; put "
            "everything in the ExperimentSpec"
        )
    return _run_spec(spec)


def _run_spec(spec: ExperimentSpec) -> ExperimentResult:
    """Assemble and simulate one spec (the engine's per-point work unit)."""
    network = spec.network
    num_nodes = spec.num_nodes
    nic_mode = spec.nic_mode
    run_cycles = spec.run_cycles
    max_cycles = spec.max_cycles
    fault_plan = spec.fault_plan
    watchdog_cycles = spec.watchdog_cycles
    timing = spec.resolved_timing
    observe = spec.observe
    traffic = spec.traffic

    sim = Simulator(scheduler=spec.kernel)
    rngf = RngFactory(spec.seed)
    net = build_network(
        network,
        sim,
        num_nodes,
        rng=rngf.stream("route"),
        drop_prob=spec.drop_prob,
        drop_rng=rngf.stream("drop"),
        **(spec.network_overrides or {}),
    )
    params = spec.nifdy_params or best_params(network)
    lossy = spec.drop_prob > 0.0 or fault_plan is not None
    nic_factory = make_nic_factory(
        sim, nic_mode, params, lossy=lossy, retx_timeout=spec.retx_timeout,
        on_exhaust=spec.on_exhaust, max_retries=spec.max_retries,
        reorder_params=spec.reorder_params,
    )
    nics = net.attach_nics(nic_factory)
    # Reorder-tolerant receivers restore per-sender order, so software gets
    # the in-order-aware library just like the NIFDY mode does.
    exploit = (
        net.delivers_in_order
        or nic_mode == "nifdy"
        or nic_mode in REORDER_NIC_MODES
    )
    active = spec.active_nodes if spec.active_nodes is not None else num_nodes
    if not 0 < active <= num_nodes:
        raise ValueError("active_nodes must be in 1..num_nodes")
    barrier = Barrier(sim, active, release_cost=timing.barrier_cost)
    coll_params = spec.collective_params
    if coll_params is not None and coll_params.barrier == "nic":
        # Offloaded: each active NIC gets a combining-tree engine; barriers
        # and reductions become protocol traffic instead of a host combine.
        tree = CollectiveTree(range(active), coll_params.fanout)
        for node in range(active):
            nics[node].collective = CollectiveEngine(
                sim, nics[node], tree, coll_params, lossy=lossy,
            )
    # The host-side reduction combine (used by AllReduce when not offloaded;
    # WaitBarrier keeps using the plain Barrier for bit-stable history).
    host_coll = HostCollective(
        sim, active, release_cost=timing.barrier_cost,
        op=coll_params.op if coll_params is not None else "sum",
    )
    drivers = [
        traffic(node, active, rngf, exploit) if node < active else IdleDriver()
        for node in range(num_nodes)
    ]
    processors = [
        Processor(
            sim,
            node,
            nics[node],
            drivers[node],
            timing,
            barrier=barrier,
            network_in_order=net.delivers_in_order,
            exploit_inorder=exploit,
            host_collective=host_coll if node < active else None,
        )
        for node in range(num_nodes)
    ]
    metrics = MetricsCollector(
        num_nodes,
        check_order=spec.check_order,
        record_delivery_cycles=fault_plan is not None,
    )
    metrics.attach(nics, processors)
    # Abandonment must reach two parties: the metrics (so the run can
    # terminate and report the loss) and the sender's driver (so workloads
    # tracking expected traffic don't wait forever).
    for node, nic in enumerate(nics):
        def _abandon(packet, _driver=drivers[node]):
            metrics.note_abandon(packet)
            _driver.on_abandoned(packet)
        nic.on_abandon = _abandon
    injector = None
    if fault_plan is not None and fault_plan:
        injector = FaultInjector(
            sim, net, fault_plan, processors=processors,
            rng=rngf.stream("faults"),
        )
        injector.start()
    if observe is not None and observe.enabled:
        if observe.profile:
            observe.kernel_profile = sim.enable_profiling()
        if observe.events or observe.validate:
            observe.bus = EventBus(keep_events=observe.keep_events)
            observe.bus.attach(nics, net.links, net.routers, injector)
        if observe.validate:
            # Deferred import: repro.validate sits above the experiments
            # layer (its chaos engine drives the SweepEngine).
            from ..validate.invariants import InvariantMonitor

            # Order is gated per receiver (the monitor duck-types each
            # node's NIC), so mixed guarantees on a reordering fabric are
            # checked exactly where they hold.
            observe.monitor = InvariantMonitor(
                check_order=spec.check_order,
                fabric_in_order=net.delivers_in_order,
                strict=observe.validate_strict,
            ).attach(observe.bus, nics)
        if observe.trace:
            # Attach AFTER the collector and the abandon rewiring so the
            # tracer chains (not replaces) the accounting hooks.
            observe.tracer = PacketTracer(max_packets=observe.trace_max_packets)
            observe.tracer.attach(nics)
        if observe.sample_interval:
            observe.sampler = StateSampler(
                sim, nics, net.links, collector=metrics,
                interval=observe.sample_interval,
            )
            observe.sampler.start()
    tracker = None
    if spec.track_congestion:
        tracker = CongestionTracker(sim, metrics, spec.congestion_sample_every)
        tracker.start()
    for proc in processors:
        proc.start()

    completed = True
    stall_report = None
    if run_cycles is not None:
        sim.run_until(run_cycles)
    else:
        chunk = 1000
        last_signature = None
        last_progress = sim.now
        while True:
            sim.run_until(sim.now + chunk)
            if all(p.done for p in processors) and metrics.in_flight == 0:
                break
            if sim.now >= max_cycles:
                completed = False
                break
            if watchdog_cycles:
                # Liveness: "progress" is any packet movement anywhere --
                # flits on wires catch in-network crawl, deliveries and
                # abandonments catch end-point progress.
                signature = (
                    metrics.delivered,
                    metrics.abandoned,
                    sum(link.flits_carried for link in net.links),
                )
                if signature != last_signature:
                    last_signature = signature
                    last_progress = sim.now
                elif sim.now - last_progress >= watchdog_cycles:
                    completed = False
                    stall_report = describe_stall(nics, processors, metrics)
                    break
    if tracker is not None:
        tracker.stop()
    if observe is not None and observe.sampler is not None:
        observe.sampler.stop()
    violations: List[Dict] = []
    if observe is not None and observe.monitor is not None:
        # The no-silent-loss check only makes sense for a completed
        # run-to-completion workload: fixed-horizon and stalled/truncated
        # runs legitimately end with packets in flight.
        observe.monitor.finish(
            check_loss=completed and run_cycles is None, cycle=sim.now,
        )
        violations = [v.to_dict() for v in observe.monitor.violations]

    return ExperimentResult(
        network=net.name,
        nic_mode=nic_mode,
        num_nodes=num_nodes,
        cycles=sim.now,
        sent=metrics.sent,
        delivered=metrics.delivered,
        completed=completed,
        order_violations=metrics.order_violations,
        mean_network_latency=metrics.network_latency.mean,
        mean_total_latency=metrics.total_latency.mean,
        abandoned=metrics.abandoned,
        stall_report=stall_report,
        violations=violations,
        drivers=drivers,
        processors=processors,
        nics=nics,
        network_obj=net,
        congestion=tracker,
        metrics=metrics,
        fault_injector=injector,
        obs=observe,
    )
