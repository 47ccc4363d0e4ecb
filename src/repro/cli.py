"""Command-line interface: run experiments without writing Python.

Usage (after ``pip install -e .``)::

    python -m repro list
    python -m repro run --network fattree --traffic heavy --nic nifdy
    python -m repro run --network cm5 --traffic cshift --nic plain --nodes 16
    python -m repro run --network fattree --traffic heavy \
        --metrics-out run.json --trace-chrome trace.json \
        --sample-interval 500 --profile
    python -m repro sweep --network fattree --jobs 4
    python -m repro sweep --network mesh2d --kind load --gaps 800,200,0
    python -m repro sweep --network mesh2d --kind load --manifest-dir DIR
    python -m repro characterize --network mesh2d
    python -m repro advise --network cm5
    python -m repro report --out report/

``run`` and ``sweep`` accept ``--json`` for machine-readable
stdout (schema-stamped documents from :mod:`repro.report.schema`; the
human output moves to stderr).  ``report`` regenerates the paper's
figures, claim margins, run health, and the perf trajectory from the
archived ``benchmarks/results/`` tree.

``run`` prints the same metrics the benchmark suite reports (packets
delivered, throughput, latency percentiles, ordering); ``sweep`` runs a
parameter/load/size grid through the parallel, cache-backed
:class:`~repro.experiments.SweepEngine` (``--jobs N`` for worker processes,
``--no-cache`` to force re-execution, ``--manifest-dir DIR`` for a
crash-surviving campaign that the same command resumes; the ranked table
goes to stdout, progress and cache statistics to stderr so sweep outputs
diff cleanly);
``characterize`` prints a Table-3 row; ``advise`` runs the Section 2.4
parameter advisor on measured characteristics.

Observability flags on ``run``: ``--metrics-out FILE`` writes the full
structured metrics JSON (totals, latency histograms, per-NIC counters,
protocol event counts); ``--trace-chrome FILE`` writes a Chrome-trace /
Perfetto timeline of packet lifecycles and fault windows;
``--sample-interval N`` samples per-receiver backlog (Figure 5), pool, OPT,
dialog and link state every N cycles (embedded in the metrics JSON);
``--profile`` prints simulator self-profiling (events/sec, per-handler
wall-clock).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading
from typing import List, Optional

# ``analysis`` (numpy) and ``report`` are imported inside the commands
# that use them, and the worker pool and campaign ledger inside the sweep
# engine, so ``run`` never loads them.
from .faults import FaultPlan
from .metrics import degradation_report, format_degradation
from .experiments import (
    ExperimentSpec,
    FarmPolicy,
    SweepEngine,
    SweepPoint,
    best_params,
    default_param_grid,
    machine_size_specs,
    nifdy_param_specs,
    offered_load_specs,
    run_experiment,
)
from .experiments.sweep import params_label
from .networks import EXTENSION_NETWORK_NAMES, NETWORK_NAMES
from .nic import NIC_MODES, CollectiveParams, NifdyParams
from .obs import Observability, chrome_trace, metrics_json, write_json
from .sim import DEFAULT_SCHEDULER, scheduler_names
from .traffic import (
    Em3dConfig,
    SyntheticConfig,
    TrafficSpec,
    traffic_entry,
    traffic_names,
)

#: The one per-name CLI default: a short EM3D so ``repro run`` finishes
#: quickly.  Every other name runs its registered default config.
_CLI_TRAFFIC_CONFIGS = {
    "em3d": Em3dConfig.light_communication(scale=0.15, iterations=2),
}


def _cmd_list(args) -> int:
    print("networks:")
    for name in NETWORK_NAMES:
        print(f"  {name}")
    print("extension networks:")
    for name in EXTENSION_NETWORK_NAMES:
        print(f"  {name}")
    print("traffic loads:", ", ".join(traffic_names()))
    print("NIC modes    :", ", ".join(NIC_MODES))
    return 0


def _fault_plan_from_args(args) -> Optional[FaultPlan]:
    plan = None
    if args.fault_plan:
        plan = FaultPlan.from_json_file(args.fault_plan)
    if args.fault:
        shorthand = FaultPlan.from_shorthand(args.fault)
        if plan is None:
            plan = shorthand
        else:
            for event in shorthand:
                plan.add(event)
    return plan


def _cmd_run(args) -> int:
    params = None
    if any(v is not None for v in (args.opt, args.pool, args.dialogs, args.window)):
        base = best_params(args.network)
        params = NifdyParams(
            opt_size=args.opt if args.opt is not None else base.opt_size,
            pool_size=args.pool if args.pool is not None else base.pool_size,
            dialogs=args.dialogs if args.dialogs is not None else base.dialogs,
            window=args.window if args.window is not None else base.window,
        )
    plan = _fault_plan_from_args(args)
    fixed_horizon = traffic_entry(args.traffic).config_cls is SyntheticConfig
    observe = None
    if args.metrics_out or args.trace_chrome or args.sample_interval or args.profile:
        observe = Observability(
            events=bool(args.metrics_out),
            sample_interval=args.sample_interval,
            trace=bool(args.trace_chrome),
            profile=args.profile,
        )
    collective_params = None
    if args.barrier == "nic":
        collective_params = CollectiveParams(
            barrier="nic", fanout=args.coll_fanout,
        )
    result = run_experiment(ExperimentSpec(
        network=args.network,
        traffic=TrafficSpec(args.traffic,
                            _CLI_TRAFFIC_CONFIGS.get(args.traffic)),
        num_nodes=args.nodes,
        nic_mode=args.nic,
        nifdy_params=params,
        collective_params=collective_params,
        run_cycles=args.cycles if fixed_horizon else None,
        max_cycles=args.max_cycles,
        seed=args.seed,
        drop_prob=args.drop,
        max_retries=args.max_retries,
        fault_plan=plan,
        network_overrides={"path_skew": args.path_skew}
        if args.path_skew else None,
        watchdog_cycles=args.watchdog,
        kernel=args.kernel,
        observe=observe,
    ))
    if args.json:
        # Machine-readable mode: the schema-stamped RunStats document is
        # the only thing on stdout; the human stats move to stderr.
        with contextlib.redirect_stdout(sys.stderr):
            _print_run_human(args, plan, result, observe)
        print(json.dumps(result.run_stats().to_dict(stamped=True),
                         indent=2, default=str))
    else:
        _print_run_human(args, plan, result, observe)
    return 0 if result.completed or fixed_horizon else 1


def _print_run_human(args, plan, result, observe) -> None:
    hist = result.metrics.network_latency
    print(f"network          : {result.network}")
    print(f"NIC mode         : {result.nic_mode}")
    print(f"cycles simulated : {result.cycles:,}"
          + ("" if result.completed else "  (did NOT complete)"))
    print(f"packets sent     : {result.sent:,}")
    print(f"packets delivered: {result.delivered:,}")
    print(f"throughput       : {result.throughput:.1f} packets/kcycle")
    print(f"latency          : mean {hist.mean:.0f}  p50 {hist.p50}  "
          f"p90 {hist.p90}  p99 {hist.p99}  max {hist.maximum} cycles "
          "(injection -> accept)")
    print(f"order violations : {result.order_violations}")
    engines = [nic.collective for nic in result.nics
               if nic.collective is not None]
    if engines:
        blat = result.metrics.barrier_latency
        print(f"collectives      : "
              f"{sum(e.coll_completed for e in engines)} completed on the "
              f"NIC tree, {sum(e.coll_retransmits for e in engines)} "
              f"retransmit(s), {sum(e.coll_duplicates for e in engines)} "
              f"duplicate(s); barrier latency mean {blat.mean:.0f} "
              f"p99 {blat.p99} cycles")
    depth = result.metrics.reorder_depth
    if depth.count:
        print(f"reorder depth    : p50 {depth.p50}  p99 {depth.p99}  "
              f"max {depth.maximum} over "
              f"{len(result.metrics.reorder_depth_by_pair)} (src,dst) pairs")
    if plan is not None or args.drop > 0.0:
        # A faulted run earns its degradation section: how much of the
        # offered traffic survived and what the recovery machinery cost.
        report = degradation_report(
            metrics=result.metrics,
            nics=result.nics,
            network=result.network_obj,
            cycles=result.cycles,
            boundaries=plan.boundaries() if plan else (),
            repairs=[(e.at, e.describe()) for e in plan.repairs()] if plan else (),
            timeline=result.fault_injector.timeline if result.fault_injector else (),
        )
        print(format_degradation(report))
        if result.fault_injector is not None:
            print("fault timeline:")
            for cycle, text in result.fault_injector.timeline:
                print(f"  @{cycle:>9,}  {text}")
    if result.stall_report:
        print(result.stall_report)
    if observe is not None:
        _write_observability(args, plan, result, observe)


def _write_observability(args, plan, result, observe) -> None:
    """Emit the JSON artifacts / self-profile the obs flags asked for."""
    if args.metrics_out:
        run_args = {
            "network": args.network, "traffic": args.traffic, "nic": args.nic,
            "nodes": args.nodes, "cycles": args.cycles, "seed": args.seed,
            "drop": args.drop, "faults": [e.describe() for e in plan] if plan else [],
        }
        write_json(args.metrics_out, metrics_json(result, run_args=run_args))
        print(f"metrics JSON     : {args.metrics_out}")
    if args.trace_chrome:
        windows = [(e.at, e.until, e.describe()) for e in plan] if plan else []
        timeline = result.fault_injector.timeline if result.fault_injector else []
        trace = chrome_trace(
            result.metrics,
            fault_windows=windows,
            fault_timeline=timeline,
            run_label=f"{args.network}/{args.traffic}/{args.nic}",
        )
        write_json(args.trace_chrome, trace)
        print(f"chrome trace     : {args.trace_chrome} "
              f"({len(result.metrics.traces)} packets; open in ui.perfetto.dev)")
    if observe.sampler is not None:
        s = observe.sampler
        print(f"sampler          : {len(s)} samples @ {s.interval} cycles; "
              f"peak pool {s.peak_pool()}, peak OPT {s.peak_opt()}, "
              f"peak in-network {s.peak_in_network()}, "
              f"mean link busy {s.mean_link_busy():.3f}")
    if observe.kernel_profile is not None:
        print(observe.kernel_profile.format())


def _int_list(text: str) -> List[int]:
    return [int(item) for item in text.split(",") if item != ""]


def _point_dict(point) -> dict:
    """A SweepPoint as the plain dict the ``--json`` envelope carries."""
    return {
        "label": point.label,
        "delivered": point.delivered,
        "cycles": point.cycles,
        "sent": point.sent,
        "completed": point.completed,
        "order_violations": point.order_violations,
        "abandoned": point.abandoned,
        "throughput": round(point.throughput, 3),
        "cached": point.cached,
        "resumed": point.resumed,
        "timed_out": point.timed_out,
        "error": point.error,
    }


def _cmd_sweep(args) -> int:
    """Run a parameter/load/size sweep through the SweepEngine.

    Results (the deterministic table) go to stdout; progress and engine
    statistics go to stderr, so serial, parallel and resumed invocations
    of the same grid produce byte-identical stdout -- the property the CI
    sweep-smoke and farm-smoke jobs diff.  ``--json`` swaps stdout over to
    a schema-stamped ``repro-sweep`` document (the table moves to stderr).

    With ``--manifest-dir`` the sweep is a campaign: the engine
    checkpoints a ledger there after every settled point, and the same
    command run again after *any* interruption -- Ctrl-C, SIGTERM, power
    loss -- resumes it instead of starting over.
    """
    def progress(done, total, point):
        status = ("ERROR" if point.error else "resumed" if point.resumed
                  else "cache" if point.cached else "ran")
        print(f"  [{done}/{total}] {point.label}: {status}", file=sys.stderr)

    engine = SweepEngine(
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        progress=progress if not args.quiet else None,
        point_timeout=args.point_timeout,
        policy=FarmPolicy(retries=args.retries, poison_after=args.poison_after,
                          seed=args.seed),
        campaign_dir=args.manifest_dir,
    )
    json_points: List[dict] = []
    stack = contextlib.ExitStack()
    if args.json:
        stack.enter_context(contextlib.redirect_stdout(sys.stderr))
    try:
        with stack:
            _run_sweep_table(args, engine, json_points)
    except KeyboardInterrupt:
        if engine.manifest is None:
            raise
        print(f"sweep: interrupted; campaign checkpointed at "
              f"{engine.manifest.path}\n"
              "sweep: re-run the same command to resume", file=sys.stderr)
        return 130
    stats = engine.stats
    if args.json:
        from .report.schema import EngineStats, SweepRecord

        record = SweepRecord(
            sweep=args.kind, network=args.network, points=json_points,
            engine=EngineStats.from_dict(stats.as_dict()),
        )
        print(json.dumps(record.to_dict(), indent=2, default=str))
    if engine.manifest is not None:
        print(f"manifest : {engine.manifest.path}", file=sys.stderr)
    print(
        f"sweep: {stats.points} point(s), {stats.executed} executed, "
        f"{stats.resumed} resumed, "
        f"{stats.cache_hits} from cache ({stats.hit_rate:.0%}), "
        f"{stats.retries} retr{'y' if stats.retries == 1 else 'ies'}, "
        f"{stats.worker_deaths} worker death(s), {stats.poisoned} poisoned, "
        f"{stats.errors} error(s), {stats.wall_s:.2f}s "
        f"with --jobs {args.jobs}",
        file=sys.stderr,
    )
    return 1 if stats.errors else 0


def _print_row(label: str, point, figures: str) -> None:
    """One table row: ``figures`` when ``point`` ran, else its failure
    (POISONED, TIMEOUT or ERROR), with the diagnosis on stderr."""
    if point.error is None:
        print(f"  {label}  {figures}")
        return
    status = ("POISONED" if point.poisoned
              else "TIMEOUT" if point.timed_out else "ERROR")
    print(f"  {label}  {status} (see stderr)")
    print(point.error, file=sys.stderr)


def rank_param_sets(points: List[SweepPoint],
                    runs_per_set: int) -> List[SweepPoint]:
    """Fold a :func:`~repro.experiments.nifdy_param_specs` sweep into one
    point per parameter set, best first (Table 3 methodology: "chosen to
    give the best average performance with both test traffic patterns").

    ``points`` come in grid order, ``runs_per_set`` consecutive runs
    (heavy, then light) per set.  Each folded point sums its runs'
    deliveries and *actual* simulated cycles (not the requested horizon),
    so ``throughput`` stays honest for early-completing workloads.
    """
    ranked = []
    for i in range(0, len(points), runs_per_set):
        group = points[i:i + runs_per_set]
        params = group[0].params
        bad = next((p for p in group if not p.ok), None)
        ranked.append(SweepPoint(
            params_label(params),
            params,
            sum(p.delivered for p in group),
            sum(p.cycles for p in group),
            sent=sum(p.sent for p in group),
            completed=all(p.completed for p in group),
            cached=all(p.cached for p in group),
            resumed=all(p.resumed for p in group),
            error=bad.error if bad is not None else None,
            wall_s=sum(p.wall_s for p in group),
        ))
    ranked.sort(key=lambda point: point.delivered, reverse=True)
    return ranked


def _run_sweep_table(args, engine, json_points: List[dict]) -> None:
    """The human sweep table (stdout unless redirected) + point collection."""
    if args.kind == "sizes":
        sizes = _int_list(args.sizes)
        points = engine.run(machine_size_specs(
            args.network, sizes, best_params(args.network),
            baseline_mode=args.nic, run_cycles=args.cycles, seed=args.seed,
        ))
        print(f"Machine-size sweep on {args.network} "
              f"(NIFDY vs {args.nic}, {args.cycles:,}-cycle windows):")
        for i, size in enumerate(sizes):
            base, nifdy = points[2 * i], points[2 * i + 1]
            norm = nifdy.delivered / base.delivered if base.delivered else 0.0
            json_points.append({
                "label": f"n={size}", "size": size,
                "nifdy_delivered": nifdy.delivered,
                "baseline_delivered": base.delivered,
                "normalized": round(norm, 3),
            })
            _print_row(f"n={size:<5d}", base if base.error else nifdy,
                       f"nifdy={nifdy.delivered:>8,}  "
                       f"{args.nic}={base.delivered:>8,}  "
                       f"normalized={norm:5.2f}x")
        return
    if args.kind == "params":
        grid = default_param_grid(
            opt_sizes=_int_list(args.opt_grid), windows=_int_list(args.window_grid),
        )
        points = rank_param_sets(
            engine.run(nifdy_param_specs(
                args.network, grid, num_nodes=args.nodes,
                run_cycles=args.cycles, seed=args.seed,
                combine_light_and_heavy=not args.heavy_only,
            )),
            runs_per_set=1 if args.heavy_only else 2,
        )
        loads = "heavy" if args.heavy_only else "heavy+light"
        print(f"NIFDY parameter sweep on {args.network} "
              f"({loads}, {args.cycles:,}-cycle windows), best first:")
        width = 24
    else:  # load
        points = engine.run(offered_load_specs(
            args.network, _int_list(args.gaps), nic_mode=args.nic,
            num_nodes=args.nodes, run_cycles=args.cycles, seed=args.seed,
        ))
        print(f"Offered-load sweep on {args.network} ({args.nic}, "
              f"{args.cycles:,}-cycle windows):")
        width = 12
    json_points.extend(_point_dict(p) for p in points)
    for point in points:
        _print_row(f"{point.label:{width}s}", point,
                   f"delivered={point.delivered:>8,}  "
                   f"throughput={point.throughput:8.1f}/kcycle")


def _cmd_chaos(args) -> int:
    """Chaos-test the protocol, or replay a chaos reproducer.

    Batch mode runs ``--trials`` seeded random fault × workload × parameter
    trials under the invariant monitor; every failure is shrunk to a
    minimal JSON reproducer in ``--artifact-dir`` and the command exits 1.
    ``--replay FILE`` re-runs one reproducer deterministically: exit 0 if
    the recorded failure reproduces, 2 if it does not.
    """
    # Deferred: repro.validate pulls in the whole experiments stack.
    from .validate import ChaosConfig, ChaosEngine, replay_artifact

    if args.replay:
        reproduced, failure, detail = replay_artifact(args.replay)
        if reproduced:
            print(f"reproduced: {failure}")
            print(detail)
            return 0
        print("did NOT reproduce "
              f"(run classified as: {failure or 'ok'})")
        if detail:
            print(detail)
        return 2

    def progress(done, total, point):
        status = "ok"
        if point.error is not None:
            status = "TIMEOUT" if point.timed_out else "ERROR"
        elif point.violations:
            status = "VIOLATION"
        elif point.stall_report:
            status = "STALL"
        elif not point.completed:
            status = "INCOMPLETE"
        print(f"  [{done}/{total}] {point.label}: {status}", file=sys.stderr)

    config = ChaosConfig(
        trials=args.trials,
        seed=args.seed,
        network=args.network,
        num_nodes=args.nodes,
        traffics=tuple(t for t in args.traffics.split(",") if t),
        nic_modes=tuple(m for m in args.nic_modes.split(",") if m),
        barrier_modes=tuple(b for b in args.barrier_modes.split(",") if b),
        path_skews=tuple(_int_list(args.path_skews)) or (0,),
        max_faults=args.max_faults,
        retries=args.retries,
        jobs=args.jobs,
        point_timeout=args.point_timeout,
        shrink_budget=args.shrink_budget,
        artifact_dir=args.artifact_dir,
    )
    engine = ChaosEngine(config)
    report = engine.run(progress=progress if not args.quiet else None)
    print(report.summary())
    for finding in report.findings:
        print(f"  detail: {finding.detail.splitlines()[0]}")
        print(f"  replay: python -m repro chaos --replay {finding.artifact}")
    return 1 if report.findings else 0


def _cmd_report(args) -> int:
    """Regenerate the paper's figures + fidelity report from archived
    results (see :mod:`repro.report`).  Page-by-page progress goes over
    the obs bus to stderr; the summary lands on stdout."""
    from .obs import EventBus
    from .report import generate_report

    bus = EventBus()
    if not args.quiet:
        bus.subscribe(
            "report_page",
            lambda e: print(f"  [{e.cycle + 1}] {e.info}", file=sys.stderr),
        )
    result = generate_report(args.results, args.out, fmt=args.format, bus=bus)
    print(f"report           : {result.index}")
    print(f"pages            : {len(result.pages)}")
    print(f"figures rendered : {result.figures_rendered}")
    if result.figures_missing:
        print(f"missing data for : {', '.join(result.figures_missing)} "
              "(re-run those benches to regenerate)")
    print(f"fidelity checks  : {result.checks_ok}/{result.checks_total} ok")
    print(f"history snapshots: {result.history_points}")
    return 0


def _cmd_characterize(args) -> int:
    from .analysis import characterize

    row = characterize(args.network, args.nodes)
    print(f"network   : {row.name}")
    print(f"volume    : {row.volume_words_per_node:.1f} words/node")
    print(f"bisection : {row.bisection_bytes_per_cycle:.1f} bytes/cycle")
    print(f"hops      : avg {row.avg_hops:.1f}, max {row.max_hops}")
    print(f"latency   : {row.formula()}")
    print(f"in-order  : {row.delivers_in_order}")
    return 0


def _cmd_advise(args) -> int:
    from .analysis import NetworkModel, characterize, recommend_params

    row = characterize(args.network, args.nodes)
    model = NetworkModel(
        t_lat=row.t_lat,
        max_hops=row.max_hops,
        avg_hops=row.avg_hops,
        volume_words_per_node=row.volume_words_per_node,
        bisection_bytes_per_cycle=row.bisection_bytes_per_cycle,
        num_nodes=row.num_nodes,
    )
    rec = recommend_params(model)
    p = rec.params
    print(f"network     : {row.name}")
    print(f"max RTT     : {rec.max_roundtrip:.0f} cycles")
    print(f"recommended : O={p.opt_size} B={p.pool_size} D={p.dialogs} W={p.window}")
    print(f"reasoning   : {rec.notes}")
    tuned = best_params(args.network)
    print(f"library tune: O={tuned.opt_size} B={tuned.pool_size} "
          f"D={tuned.dialogs} W={tuned.window}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NIFDY (ISCA '95) reproduction: simulate MPP networks "
        "with and without NIFDY network interfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list networks, traffic loads, NIC modes")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("--network", required=True,
                     choices=NETWORK_NAMES + EXTENSION_NETWORK_NAMES)
    run.add_argument("--traffic", default="heavy", choices=traffic_names())
    run.add_argument("--nic", default="nifdy", choices=NIC_MODES)
    run.add_argument("--nodes", type=int, default=64)
    run.add_argument("--cycles", type=int, default=20_000,
                     help="measurement window for synthetic traffic")
    run.add_argument("--max-cycles", type=int, default=20_000_000,
                     help="safety bound for run-to-completion workloads")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--drop", type=float, default=0.0,
                     help="per-link packet drop probability (Section 6.2)")
    run.add_argument("--path-skew", type=int, default=0, metavar="CYCLES",
                     help="per-hop random route-latency jitter in cycles "
                     "(spraying fabrics only; makes in-network reordering "
                     "likely)")
    run.add_argument("--fault-plan", default=None, metavar="FILE",
                     help="JSON fault plan (see docs/protocol.md, Fault model)")
    run.add_argument("--fault", action="append", default=[], metavar="SPEC",
                     help="shorthand fault event, repeatable; e.g. "
                     "'fail@5000-20000:link=ft:up1.0', "
                     "'burst@5000-20000:prob=0.1', "
                     "'burst@1000-3000:prob=0.3,net=ack', "
                     "'pause@1000-4000:node=3'")
    run.add_argument("--max-retries", type=int, default=50,
                     help="retransmission attempts before a packet is "
                     "abandoned (graceful degradation)")
    run.add_argument("--watchdog", type=int, default=200_000,
                     help="liveness watchdog horizon in cycles "
                     "(0 disables; run-to-completion workloads only)")
    run.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="write structured metrics JSON (totals, latency "
                     "histograms, per-NIC counters, protocol event counts)")
    run.add_argument("--trace-chrome", default=None, metavar="FILE",
                     help="write a Chrome-trace/Perfetto JSON timeline of "
                     "packet lifecycles and fault windows")
    run.add_argument("--sample-interval", type=int, default=None, metavar="N",
                     help="sample per-receiver backlog (Figure 5) and "
                     "per-node/per-link state every N cycles (time series "
                     "embedded in the metrics JSON)")
    run.add_argument("--profile", action="store_true",
                     help="print simulator self-profiling "
                     "(events/sec, per-handler wall-clock)")
    run.add_argument("--kernel", default=DEFAULT_SCHEDULER,
                     choices=scheduler_names(),
                     help="event-queue implementation (results are "
                     "bit-identical; 'heap' is the slow reference)")
    run.add_argument("--json", action="store_true",
                     help="print the result as a schema-stamped repro-run "
                     "JSON document on stdout (human stats move to stderr)")
    run.add_argument("--barrier", default="host", choices=("host", "nic"),
                     help="where barriers/reductions run: 'host' is the "
                     "zero-network flat combine, 'nic' offloads them onto "
                     "the NIC combining tree (collective packets on the "
                     "request/reply nets)")
    run.add_argument("--coll-fanout", type=int, default=4, metavar="K",
                     help="arity of the NIC combining tree (--barrier nic)")
    run.add_argument("--opt", type=int, default=None, help="NIFDY O")
    run.add_argument("--pool", type=int, default=None, help="NIFDY B")
    run.add_argument("--dialogs", type=int, default=None, help="NIFDY D")
    run.add_argument("--window", type=int, default=None, help="NIFDY W")

    sweep = sub.add_parser(
        "sweep",
        help="run a parameter/load/size sweep (parallel + cached; with "
        "--manifest-dir, a crash-surviving campaign)",
    )
    sweep.add_argument("--network", required=True,
                       choices=NETWORK_NAMES + EXTENSION_NETWORK_NAMES)
    sweep.add_argument("--kind", default="params",
                       choices=("params", "load", "sizes"),
                       help="params: Table-3 (O, W) grid; load: Section-1 "
                       "operating range; sizes: Figure-4 machine sizes")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (1 = serial)")
    sweep.add_argument("--point-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock bound per grid point: a hung or "
                       "crashed worker becomes an errored point instead of "
                       "wedging the sweep (default: no bound)")
    sweep.add_argument("--manifest-dir", default=None, metavar="DIR",
                       help="run the grid as a campaign checkpointed in DIR "
                       "after every point; the same command run again "
                       "resumes it, re-running nothing that settled")
    sweep.add_argument("--retries", type=int, default=0, metavar="N",
                       help="extra attempts per point when the point kills "
                       "its worker or trips the watchdog")
    sweep.add_argument("--poison-after", type=int, default=None, metavar="N",
                       help="quarantine a point after N worker deaths "
                       "(default: its whole attempt budget, if --retries)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore and do not populate the on-disk result "
                       "cache (benchmarks/results/.cache)")
    sweep.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="override the result-cache directory")
    sweep.add_argument("--nodes", type=int, default=64)
    sweep.add_argument("--cycles", type=int, default=10_000,
                       help="measurement window per grid point")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--nic", default="plain", choices=NIC_MODES,
                       help="baseline NIC mode for load/sizes sweeps")
    sweep.add_argument("--opt-grid", default="2,4,8", metavar="O,O,...",
                       help="params sweep: OPT sizes to try")
    sweep.add_argument("--window-grid", default="0,2,8", metavar="W,W,...",
                       help="params sweep: bulk windows to try (0 = no bulk)")
    sweep.add_argument("--heavy-only", action="store_true",
                       help="params sweep: score on heavy traffic only")
    sweep.add_argument("--gaps", default="800,400,200,100,0",
                       metavar="G,G,...",
                       help="load sweep: inter-send gaps (big gap = light load)")
    sweep.add_argument("--sizes", default="16,64,256", metavar="N,N,...",
                       help="sizes sweep: machine sizes")
    sweep.add_argument("--json", action="store_true",
                       help="print the result set as a schema-stamped "
                       "repro-sweep JSON document on stdout (the human "
                       "table moves to stderr)")
    sweep.add_argument("--quiet", action="store_true",
                       help="suppress per-point progress on stderr")

    chaos = sub.add_parser(
        "chaos",
        help="chaos-test the protocol invariants under random faults, "
        "or --replay a shrunk reproducer",
    )
    chaos.add_argument("--trials", type=int, default=20,
                       help="seeded random fault x workload x parameter "
                       "trials to run")
    chaos.add_argument("--seed", type=int, default=0,
                       help="batch seed; the whole batch is a deterministic "
                       "function of it")
    chaos.add_argument("--network", default="fattree",
                       choices=NETWORK_NAMES + EXTENSION_NETWORK_NAMES)
    chaos.add_argument("--nodes", type=int, default=16)
    chaos.add_argument("--traffics",
                       default="cshift,radix,hotspot,pairstream,allreduce",
                       metavar="NAME,NAME,...",
                       help="registry traffic names to draw workloads from")
    chaos.add_argument("--nic-modes", default="nifdy",
                       metavar="MODE,MODE,...",
                       help="NIC modes to draw trials from (e.g. "
                       "'nifdy,reorder-bitmap' to mix the reorder-tolerant "
                       "receivers into the gauntlet)")
    chaos.add_argument("--barrier-modes", default="host,nic",
                       metavar="MODE,MODE,...",
                       help="barrier placements to draw trials from; 'nic' "
                       "lets faults strike mid-collective on the combining "
                       "tree")
    chaos.add_argument("--path-skews", default="0", metavar="C,C,...",
                       help="per-hop route-jitter values (cycles) to draw "
                       "from; non-zero needs a -spray network")
    chaos.add_argument("--max-faults", type=int, default=3,
                       help="fault events per trial drawn from 1..N")
    chaos.add_argument("--retries", type=int, default=1,
                       help="extra attempts per trial when it kills its "
                       "worker or trips the watchdog")
    chaos.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the trial fan-out")
    chaos.add_argument("--point-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="wall-clock bound per trial (a wedged trial "
                       "becomes a reported failure)")
    chaos.add_argument("--shrink-budget", type=int, default=48,
                       help="max simulation probes per failure when "
                       "shrinking the reproducer")
    chaos.add_argument("--artifact-dir", default="benchmarks/results/chaos",
                       metavar="DIR",
                       help="where shrunk JSON reproducers are written")
    chaos.add_argument("--replay", default=None, metavar="FILE",
                       help="re-run one reproducer deterministically "
                       "(exit 0 if it reproduces, 2 if not)")
    chaos.add_argument("--quiet", action="store_true",
                       help="suppress per-trial progress on stderr")

    report = sub.add_parser(
        "report",
        help="regenerate Fig 2-9 / Table 2-3 plots, claim margins, run "
        "health, and the perf trajectory from archived bench results",
    )
    report.add_argument("--results", default="benchmarks/results",
                        metavar="DIR",
                        help="results tree to read (per-bench JSON, "
                        "chaos/, history/)")
    report.add_argument("--out", default="benchmarks/results/report",
                        metavar="DIR",
                        help="where the report pages + figures are written")
    report.add_argument("--format", default="md", choices=("md", "html"),
                        help="page format (plots are SVG)")
    report.add_argument("--quiet", action="store_true",
                        help="suppress per-page progress on stderr")

    for name in ("characterize", "advise"):
        cmd = sub.add_parser(name, help=f"{name} a network")
        cmd.add_argument("--network", required=True,
                         choices=NETWORK_NAMES + EXTENSION_NETWORK_NAMES)
        cmd.add_argument("--nodes", type=int, default=64)

    return parser


@contextlib.contextmanager
def _interrupts_as_keyboard():
    """Within the block, SIGTERM raises ``KeyboardInterrupt`` as SIGINT
    already does; the previous handler is restored on exit.  Python only
    allows signal handlers on the main thread, so elsewhere it is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):  # noqa: ARG001 - signal handler signature
        raise KeyboardInterrupt(f"signal {signum}")

    previous = signal.signal(signal.SIGTERM, _raise)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _interruptible(handler, what: str):
    """Wrap a long-running command with clean SIGINT/SIGTERM handling.

    Inside the block SIGTERM raises ``KeyboardInterrupt`` like SIGINT
    does, so both unwind through the engines' interrupt paths (which
    flush caches and manifests on the way out) and exit 130 instead of
    dying mid-write.  Commands that want a richer message (a ``sweep``
    campaign prints its resume hint) catch ``KeyboardInterrupt``
    themselves and return 130 before this wrapper sees it.
    """
    def wrapped(args) -> int:
        try:
            with _interrupts_as_keyboard():
                return handler(args)
        except KeyboardInterrupt:
            print(f"{what}: interrupted; partial results already on disk",
                  file=sys.stderr)
            return 130
    return wrapped


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "sweep": _interruptible(_cmd_sweep, "sweep"),
        "chaos": _interruptible(_cmd_chaos, "chaos"),
        "report": _cmd_report,
        "characterize": _cmd_characterize,
        "advise": _cmd_advise,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
