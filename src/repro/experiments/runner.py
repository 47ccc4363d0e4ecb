"""One-call experiment runner: network + NICs + processors + workload.

This is the API the benchmarks (and examples) use.  The spec's
:class:`~repro.traffic.TrafficSpec` builds one driver per node; the runner
assembles everything, runs either for a fixed horizon (the synthetic
throughput experiments) or to workload completion (C-shift, EM3D, radix
sort), and returns an :class:`ExperimentResult`.

The NIC mode names index :data:`repro.nic.NIC_MODES`: the paper's four
bars (``plain``, ``buffered``, ``nifdy-``, ``nifdy``) plus the
reorder-tolerant receivers.  On topologies that deliver in order by
construction (2D mesh with one VC, butterfly) the in-order-aware library
is used for every mode, exactly as the paper does.

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
from typing import Dict, List, Optional

from ..faults import FaultInjector, FaultPlan
from ..metrics import MetricsCollector
from ..networks import build_network
from ..obs import EventBus, Observability, StateSampler
from ..nic import NIC_MODES, CollectiveEngine, CollectiveTree, HostCollective
from ..node import Done, Processor, TrafficDriver
from ..sim import Barrier, RngFactory, Simulator
from .configs import best_params
from .spec import ExperimentSpec


class IdleDriver(TrafficDriver):
    """Driver for unpopulated nodes (a workload on a subset of a larger
    fabric, like the paper's 32-node C-shift on the CM-5 fat tree)."""

    def next_action(self):
        return Done()


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
        if proc.paused:
            issues.append("processor paused")
        issues += nic.stall_notes()
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
    CM-5 runs); the remaining nodes are parked: their processors never run
    (``busy_cycles == 0``), and a data packet reaching one raises.

    ``fault_plan`` injects structured faults (see :mod:`repro.faults`); the
    NIFDY modes then use the retransmitting NIC.  ``watchdog_cycles`` is
    the liveness horizon for run-to-completion workloads: a run with no
    packet movement for that long while work is still owed is declared
    stalled (``result.stall_report`` says what is stuck) rather than
    simulated to ``max_cycles``.  Set to 0 to disable.

    ``observe`` (an :class:`~repro.obs.Observability`) turns on the
    instrumentation layer: the protocol event bus, periodic state sampling
    (including Figure 5's per-receiver backlog), per-packet lifecycle
    tracing in the collector (for Chrome-trace export), and kernel
    self-profiling.  The same object comes back as ``result.obs`` with its
    live handles (``bus``/``sampler``/``kernel_profile``/``monitor``)
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
    mode = NIC_MODES[nic_mode]
    nics = net.attach_nics(
        lambda node: mode.build(
            sim, node, params, spec.reorder_params, lossy,
            retx_timeout=spec.retx_timeout, max_retries=spec.max_retries,
            on_exhaust=spec.on_exhaust,
        )
    )
    exploit = net.delivers_in_order or mode.exploit_inorder
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
    tracing = observe is not None and observe.trace
    metrics = MetricsCollector(
        num_nodes,
        check_order=spec.check_order,
        record_delivery_cycles=fault_plan is not None,
        trace_max_packets=observe.trace_max_packets if tracing else None,
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

            # Order is gated per receiver (each NIC's guarantees_order),
            # so mixed guarantees on a reordering fabric are checked
            # exactly where they hold.
            observe.monitor = InvariantMonitor(
                check_order=spec.check_order,
                fabric_in_order=net.delivers_in_order,
                strict=observe.validate_strict,
            ).attach(observe.bus, nics)
        if observe.sample_interval:
            observe.sampler = StateSampler(
                sim, nics, net.links, collector=metrics,
                interval=observe.sample_interval,
            )
            observe.sampler.start()
    for proc in processors[:active]:
        proc.start()
    for node in range(active, num_nodes):
        processors[node].done = True
        nics[node].park()

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
        metrics=metrics,
        fault_injector=injector,
        obs=observe,
    )
