"""Seeded chaos search over fault × workload × parameter space.

The ROADMAP's "handle as many scenarios as you can imagine" cannot be met
by hand-written cases: the failure modes cluster in retransmit × window
interactions that nobody imagines in advance.  The :class:`ChaosEngine`
searches for them mechanically.  Each *trial* is a seeded-random
:class:`~repro.experiments.ExperimentSpec` -- a random
:class:`~repro.faults.FaultPlan` (loss bursts weighted heaviest, link
fail/repair windows over *real* link names enumerated from the topology,
node pauses) against a random workload and random NIFDY parameters -- run
with the :class:`~repro.validate.InvariantMonitor` attached, fanned out
through the :class:`~repro.experiments.SweepEngine`'s worker pool
(cache off: validated results must not alias unvalidated cache entries;
``point_timeout`` turns a wedged trial into a reported failure).  A retry policy and a campaign ledger buy the gauntlet fault
tolerance of its own: a trial that kills its worker outright is
retried and, failing that, quarantined instead of taking the batch down,
and a batch run again resumes from its ledger (written under
``<artifact_dir>/campaigns/``) rather than starting over.

When a trial fails -- an invariant violation, a stall, a crash, an
incomplete run -- the engine **shrinks** it: delta-debugging (ddmin) over
the fault plan's events, then halving of the traffic config's integer
knobs, re-running the sim after each probe and keeping only changes that
still reproduce the same failure class.  The minimal reproducer is written
as a JSON artifact that ``repro chaos --replay <file>`` re-runs
deterministically -- the distilled bug report, with everything incidental
removed.

Every random draw comes from per-trial ``random.Random`` instances seeded
from ``ChaosConfig.seed``, and every simulation derives its randomness
from the spec's own seed, so a chaos batch is exactly reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from ..faults import FaultEvent, FaultPlan
from ..networks import build_network
from ..nic import NIC_MODES, CollectiveParams, NifdyParams, ReorderParams
from ..obs import Observability
from ..sim import Simulator
from ..traffic import (
    AllReduceConfig,
    CShiftConfig,
    Em3dConfig,
    HotSpotConfig,
    IncastConfig,
    PairStreamConfig,
    RadixSortConfig,
    RpcFanoutConfig,
    SyntheticConfig,
    TrafficSpec,
)
from ..experiments import (
    ExperimentSpec,
    FarmPolicy,
    SweepEngine,
    run_experiment,
)

ARTIFACT_KIND = "repro-chaos-reproducer"
ARTIFACT_VERSION = 1


@dataclass
class ChaosConfig:
    """One chaos batch: how many trials, against what, how hard to shrink."""

    trials: int = 20
    seed: int = 0
    network: str = "fattree"
    num_nodes: int = 16
    #: Registry names to draw workloads from.
    traffics: Tuple[str, ...] = (
        "cshift", "radix", "hotspot", "pairstream", "allreduce",
    )
    #: Where trials run their barriers/reductions: ``"nic"`` attaches the
    #: combining-tree engine so faults strike mid-collective (a link fail
    #: during a collective must neither hang nor double-contribute).
    barrier_modes: Tuple[str, ...] = ("host", "nic")
    #: NIC modes to draw from per trial (the scenario pack mixes the
    #: reorder-tolerant receivers in here on spraying fabrics).
    nic_modes: Tuple[str, ...] = ("nifdy",)
    #: Per-hop path-skew jitters to draw from (cycles; needs a network
    #: whose builder accepts ``path_skew``, i.e. the ``-spray`` fabrics).
    path_skews: Tuple[int, ...] = (0,)
    #: Fault events per trial drawn from 1..max_faults.
    max_faults: int = 3
    #: Every fault starts and ends inside [0, fault_window) so recovery has
    #: the rest of the run to finish.
    fault_window: int = 40_000
    max_cycles: int = 2_000_000
    watchdog_cycles: int = 100_000
    max_retries: int = 25
    jobs: int = 1
    #: Per-trial wall-clock bound (seconds): the engine's liveness watchdog.
    point_timeout: Optional[float] = None
    #: Extra attempts per trial when the trial kills its worker.
    retries: int = 1
    #: Max simulation probes the shrinker may spend per failure.
    shrink_budget: int = 48
    artifact_dir: str = "benchmarks/results/chaos"

    def __post_init__(self) -> None:
        unknown = [m for m in self.nic_modes if m not in NIC_MODES]
        if unknown:
            raise ValueError(
                f"unknown NIC mode(s) {unknown}; choose from {tuple(NIC_MODES)}"
            )


@dataclass
class ChaosFinding:
    """One failed trial, shrunk and written to disk."""

    trial: int
    failure: str          # "invariant:<name>" | "stall" | "error" | ...
    detail: str
    artifact: str         # path of the JSON reproducer
    original_events: int
    shrunk_events: int
    shrink_probes: int

    def describe(self) -> str:
        return (
            f"trial {self.trial}: {self.failure} "
            f"(plan {self.original_events} -> {self.shrunk_events} event(s), "
            f"{self.shrink_probes} shrink probe(s)) -> {self.artifact}"
        )


@dataclass
class ChaosReport:
    """What one chaos batch found."""

    trials: int
    findings: List[ChaosFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.ok:
            return f"chaos: {self.trials} trial(s), no failures"
        lines = [f"chaos: {len(self.findings)} of {self.trials} trial(s) failed:"]
        lines += ["  " + f.describe() for f in self.findings]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Failure classification -- shared by the batch, the shrinker's predicate,
# and --replay, so "same failure" means the same thing everywhere.
# ---------------------------------------------------------------------------

def classify_result(result) -> Tuple[Optional[str], str]:
    """(failure class, detail) for one ExperimentResult; (None, "") if ok."""
    if result.violations:
        first = result.violations[0]
        return (
            f"invariant:{first['invariant']}",
            f"{len(result.violations)} violation(s); first: {first}",
        )
    if result.stall_report:
        return "stall", result.stall_report
    if not result.completed:
        return "incomplete", (
            f"hit max_cycles with sent={result.sent} "
            f"delivered={result.delivered} abandoned={result.abandoned}"
        )
    return None, ""


def classify_point(point) -> Tuple[Optional[str], str]:
    """Same, for a SweepPoint coming back from the engine."""
    if point.error is not None:
        return ("timeout" if point.timed_out else "error"), point.error
    if point.violations:
        first = point.violations[0]
        return (
            f"invariant:{first['invariant']}",
            f"{len(point.violations)} violation(s); first: {first}",
        )
    if point.stall_report:
        return "stall", point.stall_report
    if not point.completed:
        return "incomplete", (
            f"hit max_cycles with sent={point.sent} delivered={point.delivered}"
        )
    return None, ""


def _failure_family(failure: Optional[str]) -> Optional[str]:
    """Coarse class the shrinker must preserve: any invariant violation
    counts as reproducing an invariant failure (shrinking often shifts
    *which* invariant trips first), but a stall must stay a stall."""
    if failure is None:
        return None
    return failure.split(":", 1)[0]


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def shrink_fault_plan(
    events: Sequence[FaultEvent],
    predicate: Callable[[List[FaultEvent]], bool],
    budget: int = 48,
) -> Tuple[List[FaultEvent], int]:
    """ddmin over fault events: a minimal subsequence still failing.

    ``predicate(candidate_events)`` re-runs the experiment and reports
    whether the failure survives.  Returns ``(events, probes_spent)``;
    the result is never larger than the input and the empty plan is tried
    first (the failure may not need faults at all).
    """
    events = list(events)
    probes = 0
    if events and probes < budget:
        probes += 1
        if predicate([]):
            return [], probes
    granularity = 2
    while len(events) > 1 and probes < budget:
        chunk = max(1, len(events) // granularity)
        reduced = False
        for start in range(0, len(events), chunk):
            candidate = events[:start] + events[start + chunk:]
            if not candidate:
                continue
            probes += 1
            if predicate(candidate):
                events = candidate
                granularity = max(2, granularity - 1)
                reduced = True
                break
            if probes >= budget:
                break
        if not reduced:
            if granularity >= len(events):
                break
            granularity = min(len(events), granularity * 2)
    return events, probes


def shrink_traffic_config(
    config,
    predicate: Callable[[object], bool],
    budget: int = 16,
) -> Tuple[object, int]:
    """Halve each integer knob of a traffic config while the failure
    survives.  Generic over any config dataclass: bools are skipped,
    configs whose validators reject a halved value are skipped, and every
    kept change re-verified the failure, so the result is always a valid,
    still-failing config no larger than the input."""
    probes = 0
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        while value > 1 and probes < budget:
            try:
                candidate = dataclasses.replace(config, **{f.name: value // 2})
            except Exception:  # noqa: BLE001 - validator said no; move on
                break
            probes += 1
            if predicate(candidate):
                config = candidate
                value = value // 2
            else:
                break
    return config, probes


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class ChaosEngine:
    """Generates, runs, classifies, and shrinks chaos trials."""

    def __init__(self, config: Optional[ChaosConfig] = None):
        self.config = config or ChaosConfig()
        # Enumerate the topology's real link names once, so generated
        # link_fail patterns always match something.
        net = build_network(
            self.config.network, Simulator(), self.config.num_nodes,
            rng=random.Random(0),
        )
        self.link_names = [link.name for link in net.links]

    # -------------------------------------------------------- generation
    def _trial_rng(self, trial: int) -> random.Random:
        return random.Random(self.config.seed * 1_000_003 + trial)

    def _random_traffic(self, rng: random.Random) -> TrafficSpec:
        name = rng.choice(self.config.traffics)
        n = self.config.num_nodes
        if name == "cshift":
            cfg = CShiftConfig(
                words_per_phase=rng.choice((24, 48)),
                barriers=rng.random() < 0.3,
            )
        elif name == "radix":
            cfg = RadixSortConfig(buckets=64, keys_per_processor=32)
        elif name == "hotspot":
            cfg = HotSpotConfig(
                packets_per_node=rng.choice((40, 80)),
                hot_fraction=rng.choice((0.1, 0.3)),
            )
        elif name == "pairstream":
            cfg = PairStreamConfig(
                src=0, dst=rng.randrange(1, n),
                packets=rng.choice((40, 80)),
                bulk=rng.random() < 0.5,
            )
        elif name == "em3d":
            cfg = Em3dConfig.light_communication(scale=0.05, iterations=1)
        elif name == "incast":
            cfg = IncastConfig(
                rounds=rng.choice((2, 3)),
                packets_per_round=rng.choice((4, 8)),
                fan_in=rng.choice((0, max(1, n // 2))),
            )
        elif name == "rpc":
            cfg = RpcFanoutConfig(
                fanout=rng.choice((4, n - 1)),
                rounds=rng.choice((2, 3)),
                reply_packets=rng.choice((2, 4)),
            )
        elif name == "allreduce":
            cfg = AllReduceConfig(
                rounds=rng.choice((3, 6)),
                background_words=rng.choice((24, 48)),
            )
        elif name in ("heavy", "light"):
            cfg = SyntheticConfig(
                heavy=name == "heavy",
                send_probability=1.0 if name == "heavy" else 1 / 3,
                max_phases=rng.choice((3, 6)),
            )
        else:
            cfg = None  # registry default config
        return TrafficSpec(name, cfg)

    def _random_fault(self, rng: random.Random) -> FaultEvent:
        window = self.config.fault_window
        at = rng.randrange(500, window // 2)
        until = at + rng.randrange(2_000, window // 2)
        roll = rng.random()
        if roll < 0.6:
            return FaultEvent(
                kind="loss_burst", at=at, until=until,
                prob=rng.choice((0.05, 0.1, 0.2, 0.4)),
                net=rng.choice(("any", "data", "ack")),
                link=rng.choice((None, rng.choice(self.link_names))),
            )
        if roll < 0.85:
            return FaultEvent(
                kind="link_fail", at=at, until=until,
                link=rng.choice(self.link_names),
            )
        return FaultEvent(
            kind="node_pause", at=at, until=until,
            node=rng.randrange(self.config.num_nodes),
        )

    def _random_params(self, rng: random.Random) -> NifdyParams:
        return NifdyParams(
            opt_size=rng.choice((2, 4, 8)),
            pool_size=rng.choice((4, 8)),
            dialogs=rng.choice((1, 2)),
            window=rng.choice((2, 4, 8)),
        )

    def _random_reorder_params(self, rng: random.Random) -> ReorderParams:
        tx_window = rng.choice((4, 8))
        return ReorderParams(
            tx_window=tx_window,
            rx_window=rng.choice((tx_window, 2 * tx_window)),
            cache_capacity=rng.choice((0, 4, 16)),
        )

    def trial_spec(self, trial: int) -> ExperimentSpec:
        """The (deterministic) spec for trial number ``trial``."""
        rng = self._trial_rng(trial)
        cfg = self.config
        plan = FaultPlan(
            [self._random_fault(rng)
             for _ in range(rng.randint(1, cfg.max_faults))]
        )
        traffic = self._random_traffic(rng)
        params = self._random_params(rng)
        nic_mode = rng.choice(cfg.nic_modes)
        reorder_params = (
            self._random_reorder_params(rng)
            if NIC_MODES[nic_mode].takes_reorder_params else None
        )
        skew = rng.choice(cfg.path_skews)
        collective_params = CollectiveParams(
            barrier=rng.choice(cfg.barrier_modes),
            fanout=rng.choice((2, 4, 8)),
        )
        return ExperimentSpec(
            network=cfg.network,
            traffic=traffic,
            num_nodes=cfg.num_nodes,
            nic_mode=nic_mode,
            nifdy_params=params,
            reorder_params=reorder_params,
            collective_params=collective_params,
            seed=cfg.seed * 7_919 + trial,
            max_cycles=cfg.max_cycles,
            watchdog_cycles=cfg.watchdog_cycles,
            max_retries=cfg.max_retries,
            fault_plan=plan,
            network_overrides={"path_skew": skew} if skew else None,
            observe=Observability(validate=True),
            label=f"chaos-{cfg.seed}-{trial}",
        )

    # --------------------------------------------------------------- run
    def run(self, progress: Optional[Callable] = None) -> ChaosReport:
        """Run the batch; shrink and archive every failure found.

        ``progress`` is forwarded to the underlying engine:
        ``(done, total, point) -> None`` after each trial resolves.

        The batch is a :class:`~repro.experiments.SweepEngine` campaign
        with its ledger under ``<artifact_dir>/campaigns/``: kill the batch
        at any point and re-running the same config resumes it.  A
        finished batch run again replays its ledger; trials are
        deterministic in (spec, code), so the findings are the same.
        """
        cfg = self.config
        specs = [self.trial_spec(t) for t in range(cfg.trials)]
        engine = SweepEngine(
            jobs=cfg.jobs, cache=False,
            policy=FarmPolicy(retries=cfg.retries, seed=cfg.seed),
            point_timeout=cfg.point_timeout, progress=progress,
            campaign_dir=Path(cfg.artifact_dir) / "campaigns",
        )
        points = engine.run(specs)
        report = ChaosReport(trials=cfg.trials)
        for trial, (spec, point) in enumerate(zip(specs, points)):
            failure, detail = classify_point(point)
            if failure is None:
                continue
            report.findings.append(self._distill(trial, spec, failure, detail))
        return report

    # ---------------------------------------------------------- shrinking
    def _rerun_fails(self, spec: ExperimentSpec, family: str) -> bool:
        """The shrinker's predicate: does this spec still fail the same
        way?  Runs in-process (shrink probes are small by construction);
        a crash during a probe counts as failing only for error-family
        failures."""
        try:
            result = run_experiment(spec)
        except Exception:  # noqa: BLE001 - a crashing probe is data too
            return family == "error"
        failure, _ = classify_result(result)
        return _failure_family(failure) == family

    def _distill(
        self, trial: int, spec: ExperimentSpec, failure: str, detail: str
    ) -> ChaosFinding:
        original_events = list(spec.fault_plan or ())
        family = _failure_family(failure)
        probes = 0
        shrunk = spec
        if family != "timeout":
            # A wall-clock timeout is not reproducible by the in-process,
            # untimed probes; archive it unshrunk.
            def plan_fails(events: List[FaultEvent]) -> bool:
                return self._rerun_fails(
                    spec.replace(fault_plan=FaultPlan(list(events))), family,
                )

            events, probes = shrink_fault_plan(
                original_events, plan_fails, budget=self.config.shrink_budget,
            )
            shrunk = spec.replace(fault_plan=FaultPlan(events))
            traffic = shrunk.traffic
            remaining = self.config.shrink_budget - probes
            if (
                remaining > 0
                and isinstance(traffic, TrafficSpec)
                and traffic.config is not None
            ):
                def traffic_fails(config) -> bool:
                    return self._rerun_fails(
                        shrunk.replace(
                            traffic=TrafficSpec(traffic.name, config)
                        ),
                        family,
                    )

                config, extra = shrink_traffic_config(
                    traffic.config, traffic_fails, budget=remaining,
                )
                probes += extra
                shrunk = shrunk.replace(
                    traffic=TrafficSpec(traffic.name, config)
                )
        artifact = self._write_artifact(
            trial, shrunk, failure, detail, len(original_events), probes,
        )
        return ChaosFinding(
            trial=trial,
            failure=failure,
            detail=detail,
            artifact=str(artifact),
            original_events=len(original_events),
            shrunk_events=len(list(shrunk.fault_plan or ())),
            shrink_probes=probes,
        )

    def _write_artifact(
        self, trial: int, spec: ExperimentSpec, failure: str, detail: str,
        original_events: int, probes: int,
    ) -> Path:
        directory = Path(self.config.artifact_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"chaos-seed{self.config.seed}-trial{trial}.json"
        doc = {
            "kind": ARTIFACT_KIND,
            "version": ARTIFACT_VERSION,
            "failure": failure,
            "detail": detail,
            "spec": spec.to_dict(),
            "original_events": original_events,
            "shrunk_events": len(list(spec.fault_plan or ())),
            "shrink_probes": probes,
            "trial": trial,
            "engine_seed": self.config.seed,
        }
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay_artifact(path: str) -> Tuple[bool, Optional[str], str]:
    """Re-run a chaos reproducer deterministically.

    Returns ``(reproduced, failure, detail)``: ``reproduced`` is whether
    the run failed in the same coarse class the artifact recorded.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("kind") != ARTIFACT_KIND:
        raise ValueError(
            f"{path} is not a chaos reproducer (kind={doc.get('kind')!r})"
        )
    spec = ExperimentSpec.from_dict(doc["spec"])
    if spec.observe is None or not spec.observe.validate:
        spec = spec.replace(observe=Observability(validate=True))
    try:
        result = run_experiment(spec)
        failure, detail = classify_result(result)
    except Exception:  # noqa: BLE001 - report, don't crash the CLI
        failure, detail = "error", traceback.format_exc()
    reproduced = _failure_family(failure) == _failure_family(doc["failure"])
    return reproduced, failure, detail
