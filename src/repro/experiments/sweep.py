"""Sweep descriptions as spec generators.

The paper's methodology is sweeps: NIFDY parameters per network (Table 3),
buffer/OPT sizes across machine sizes (Figure 4), offered load across the
operating range (Section 1).  Each generator here turns a sweep
description into a flat list of
:class:`~repro.experiments.spec.ExperimentSpec` -- pure data that a
:class:`~repro.experiments.engine.SweepEngine` executes, in parallel and
cached: ``engine.run(offered_load_specs(...))``.  Folding the points back
into a table is the caller's business.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..nic import NIC_MODES, NifdyParams, ReorderParams
from ..obs import Observability
from ..traffic import IncastConfig, SyntheticConfig
from .spec import ExperimentSpec
from .workloads import heavy_synthetic, incast, light_synthetic


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
