"""Parameter- and load-sweep helpers, expressed as spec generators.

The paper's methodology is sweeps: NIFDY parameters per network (Table 3),
buffer/OPT sizes across machine sizes (Figure 4), offered load across the
operating range (Section 1).  Each helper here comes in two layers:

* a **spec generator** (``nifdy_param_specs`` / ``offered_load_specs`` /
  ``machine_size_specs``) that turns the sweep description into a flat
  list of :class:`~repro.experiments.spec.ExperimentSpec` -- pure data a
  :class:`~repro.experiments.engine.SweepEngine` can execute in parallel
  and cache;
* the classic **one-call helper** (``sweep_nifdy_params`` / ...) that
  generates the specs, runs them through an engine (a private serial,
  uncached one by default -- pass ``engine=`` to parallelise or cache),
  and folds the points back into the shapes the benches plot.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..nic import NIC_MODES, CollectiveParams, NifdyParams, ReorderParams
from ..obs import Observability
from ..traffic import AllReduceConfig, IncastConfig, SyntheticConfig
from .engine import SweepEngine, SweepPoint
from .spec import ExperimentSpec
from .workloads import allreduce, heavy_synthetic, incast, light_synthetic


def _engine_or_default(engine: Optional[SweepEngine]) -> SweepEngine:
    return engine if engine is not None else SweepEngine(jobs=1, cache=False)


def params_label(params: NifdyParams) -> str:
    return (
        f"O={params.opt_size} B={params.pool_size} "
        f"D={params.dialogs} W={params.window}"
    )


# ------------------------------------------------------------------ Table 3
def nifdy_param_specs(
    network: str,
    grid: Iterable[NifdyParams],
    *,
    num_nodes: int = 64,
    run_cycles: int = 10_000,
    seed: int = 0,
    combine_light_and_heavy: bool = True,
) -> List[ExperimentSpec]:
    """The Table-3 grid as specs: one heavy (and optionally one light)
    fixed-horizon run per parameter set, in grid order."""
    traffics = [heavy_synthetic()]
    if combine_light_and_heavy:
        traffics.append(light_synthetic())
    specs = []
    for params in grid:
        for traffic in traffics:
            specs.append(
                ExperimentSpec(
                    network=network,
                    traffic=traffic,
                    num_nodes=num_nodes,
                    nic_mode="nifdy-",
                    nifdy_params=params,
                    run_cycles=run_cycles,
                    seed=seed,
                    label=f"{params_label(params)} [{traffic.name}]",
                )
            )
    return specs


def sweep_nifdy_params(
    network: str,
    grid: Iterable[NifdyParams],
    *,
    num_nodes: int = 64,
    run_cycles: int = 10_000,
    seed: int = 0,
    combine_light_and_heavy: bool = True,
    engine: Optional[SweepEngine] = None,
) -> List[SweepPoint]:
    """Score NIFDY parameter sets on a network (Table 3 methodology:
    "chosen to give the best average performance with both test traffic
    patterns").  Returns points sorted best-first; each point aggregates
    the heavy(+light) runs for one parameter set, and ``cycles`` is the
    summed *actual* simulated cycles (not the requested horizon), so
    ``throughput`` stays honest for early-completing workloads."""
    grid = list(grid)
    specs = nifdy_param_specs(
        network, grid, num_nodes=num_nodes, run_cycles=run_cycles, seed=seed,
        combine_light_and_heavy=combine_light_and_heavy,
    )
    results = _engine_or_default(engine).run(specs)
    per_params = 2 if combine_light_and_heavy else 1
    points = []
    for i, params in enumerate(grid):
        group = results[i * per_params:(i + 1) * per_params]
        bad = next((p for p in group if not p.ok), None)
        points.append(
            SweepPoint(
                params_label(params),
                params,
                sum(p.delivered for p in group),
                sum(p.cycles for p in group),
                sent=sum(p.sent for p in group),
                completed=all(p.completed for p in group),
                cached=all(p.cached for p in group),
                error=bad.error if bad is not None else None,
                wall_s=sum(p.wall_s for p in group),
            )
        )
    points.sort(key=lambda point: point.delivered, reverse=True)
    return points


def default_param_grid(
    opt_sizes: Sequence[int] = (2, 4, 8),
    windows: Sequence[int] = (0, 2, 8),
    pool_size: int = 8,
) -> List[NifdyParams]:
    """The (O, W) grid the Table 3 bench sweeps (W=0 disables bulk)."""
    grid = []
    for opt in opt_sizes:
        for window in windows:
            dialogs = 1 if window else 0
            grid.append(
                NifdyParams(
                    opt_size=opt, pool_size=pool_size,
                    dialogs=dialogs, window=window,
                )
            )
    return grid


# ---------------------------------------------------------------- Section 1
def offered_load_specs(
    network: str,
    gaps: Sequence[int],
    *,
    nic_mode: str = "plain",
    num_nodes: int = 64,
    run_cycles: int = 20_000,
    seed: int = 0,
    nifdy_params: Optional[NifdyParams] = None,
) -> List[ExperimentSpec]:
    """The operating-range curve as specs (larger gap = lighter load)."""
    return [
        ExperimentSpec(
            network=network,
            traffic=heavy_synthetic(
                SyntheticConfig.heavy_traffic(send_gap_cycles=gap)
            ),
            num_nodes=num_nodes,
            nic_mode=nic_mode,
            nifdy_params=nifdy_params,
            run_cycles=run_cycles,
            seed=seed,
            label=f"gap={gap}",
        )
        for gap in gaps
    ]


def sweep_offered_load(
    network: str,
    gaps: Sequence[int],
    *,
    nic_mode: str = "plain",
    num_nodes: int = 64,
    run_cycles: int = 20_000,
    seed: int = 0,
    nifdy_params: Optional[NifdyParams] = None,
    engine: Optional[SweepEngine] = None,
) -> List[SweepPoint]:
    """Delivered throughput vs offered load (larger gap = lighter load):
    the Section 1 operating-range curve."""
    specs = offered_load_specs(
        network, gaps, nic_mode=nic_mode, num_nodes=num_nodes,
        run_cycles=run_cycles, seed=seed, nifdy_params=nifdy_params,
    )
    return _engine_or_default(engine).run(specs)


# ------------------------------------------------- reorder scenario pack
#: The receiver-side recovery variants the scenario pack compares: every
#: mode sized by ReorderParams.
REORDER_VARIANT_MODES = tuple(
    name for name, mode in NIC_MODES.items() if mode.takes_reorder_params
)


def reorder_variant_specs(
    network: str = "fattree-spray",
    *,
    nic_modes: Sequence[str] = REORDER_VARIANT_MODES,
    loss_rates: Sequence[float] = (0.0, 0.001, 0.01),
    path_skews: Sequence[int] = (0, 2, 8),
    traffic=None,
    num_nodes: int = 16,
    seed: int = 0,
    max_cycles: int = 3_000_000,
    reorder_params: Optional[ReorderParams] = None,
    validate: bool = True,
) -> List[ExperimentSpec]:
    """The scenario-pack comparison grid as specs: receiver variant x
    loss rate x path skew on a spraying fabric, run to completion under
    the invariant monitor.

    Incast traffic by default -- the pattern the recovery variants exist
    for: synchronised bursts on a multipath fabric, so every trial sees
    genuine in-network reordering *and* ack implosion at the sink.
    """
    traffic = traffic or incast(IncastConfig(rounds=3, packets_per_round=6))
    specs = []
    for mode in nic_modes:
        for loss in loss_rates:
            for skew in path_skews:
                specs.append(
                    ExperimentSpec(
                        network=network,
                        traffic=traffic,
                        num_nodes=num_nodes,
                        nic_mode=mode,
                        reorder_params=reorder_params,
                        max_cycles=max_cycles,
                        seed=seed,
                        drop_prob=loss,
                        network_overrides={"path_skew": skew},
                        observe=Observability(validate=True)
                        if validate else None,
                        label=f"{mode} loss={loss:.2%} skew={skew}",
                    )
                )
    return specs


def sweep_reorder_variants(
    network: str = "fattree-spray",
    *,
    nic_modes: Sequence[str] = REORDER_VARIANT_MODES,
    loss_rates: Sequence[float] = (0.0, 0.001, 0.01),
    path_skews: Sequence[int] = (0, 2, 8),
    traffic=None,
    num_nodes: int = 16,
    seed: int = 0,
    reorder_params: Optional[ReorderParams] = None,
    engine: Optional[SweepEngine] = None,
) -> List[SweepPoint]:
    """Run the receiver-variant grid; points come back in spec order
    (variant-major), each carrying delivery, abandonment, order-violation
    and invariant-violation counts."""
    specs = reorder_variant_specs(
        network, nic_modes=nic_modes, loss_rates=loss_rates,
        path_skews=path_skews, traffic=traffic, num_nodes=num_nodes,
        seed=seed, reorder_params=reorder_params,
    )
    return _engine_or_default(engine).run(specs)


# --------------------------------------------------------- NIC collectives
def collective_barrier_specs(
    network: str = "fattree",
    *,
    barrier_modes: Sequence[str] = ("host", "nic"),
    fanouts: Sequence[int] = (4,),
    traffic=None,
    num_nodes: int = 16,
    seed: int = 0,
    max_cycles: int = 3_000_000,
    validate: bool = True,
) -> List[ExperimentSpec]:
    """The host-vs-NIC barrier comparison grid as specs: barrier mode x
    combining-tree fanout over the self-verifying allreduce workload, run
    to completion under the invariant monitor."""
    traffic = traffic or allreduce(AllReduceConfig())
    specs = []
    for mode in barrier_modes:
        for fanout in fanouts:
            specs.append(
                ExperimentSpec(
                    network=network,
                    traffic=traffic,
                    num_nodes=num_nodes,
                    collective_params=CollectiveParams(
                        barrier=mode, fanout=fanout,
                    ),
                    max_cycles=max_cycles,
                    seed=seed,
                    observe=Observability(validate=True, events=True)
                    if validate else None,
                    label=f"barrier={mode} k={fanout}",
                )
            )
    return specs


def sweep_collective_barrier(
    network: str = "fattree",
    *,
    barrier_modes: Sequence[str] = ("host", "nic"),
    fanouts: Sequence[int] = (4,),
    traffic=None,
    num_nodes: int = 16,
    seed: int = 0,
    engine: Optional[SweepEngine] = None,
) -> List[SweepPoint]:
    """Run the host-vs-NIC barrier grid; points come back in spec order
    (mode-major), each carrying the barrier-latency histogram in its
    metrics JSON."""
    specs = collective_barrier_specs(
        network, barrier_modes=barrier_modes, fanouts=fanouts,
        traffic=traffic, num_nodes=num_nodes, seed=seed,
    )
    return _engine_or_default(engine).run(specs)


# ----------------------------------------------------------------- Figure 4
def machine_size_specs(
    network: str,
    sizes: Sequence[int],
    params: NifdyParams,
    *,
    baseline_mode: str = "plain",
    run_cycles: int = 10_000,
    seed: int = 0,
    traffic=None,
) -> List[ExperimentSpec]:
    """The Figure-4 scalability grid as specs: per size, one baseline run
    then one NIFDY run (flat, in that order)."""
    traffic = traffic or heavy_synthetic(
        SyntheticConfig.heavy_traffic(fixed_message_length=1)
    )
    specs = []
    for size in sizes:
        for mode, nifdy in ((baseline_mode, None), ("nifdy-", params)):
            specs.append(
                ExperimentSpec(
                    network=network,
                    traffic=traffic,
                    num_nodes=size,
                    nic_mode=mode,
                    nifdy_params=nifdy,
                    run_cycles=run_cycles,
                    seed=seed,
                    label=f"n={size} {mode}",
                )
            )
    return specs


def sweep_machine_sizes(
    network: str,
    sizes: Sequence[int],
    params: NifdyParams,
    *,
    baseline_mode: str = "plain",
    run_cycles: int = 10_000,
    seed: int = 0,
    traffic=None,
    engine: Optional[SweepEngine] = None,
) -> Dict[int, Tuple[int, int, float]]:
    """(nifdy delivered, baseline delivered, normalized) per machine size --
    the Figure 4 scalability methodology."""
    specs = machine_size_specs(
        network, sizes, params, baseline_mode=baseline_mode,
        run_cycles=run_cycles, seed=seed, traffic=traffic,
    )
    results = _engine_or_default(engine).run(specs)
    out = {}
    for i, size in enumerate(sizes):
        base = results[2 * i].delivered
        with_nifdy = results[2 * i + 1].delivered
        out[size] = (with_nifdy, base, with_nifdy / base if base else 0.0)
    return out
