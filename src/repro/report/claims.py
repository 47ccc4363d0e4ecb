"""The paper's claims, each defined once.

A :class:`Claim` is one quantitative statement of the paper's evaluation
(Figures 2-9, Tables 2-3 and the prose claims): the quantity it measures
from one bench's recorded ``data`` and the one predicate that quantity
must meet.  A bench judges its fresh data with :func:`evaluate` (through
the bench conftest's ``Report.check_claims``); the report's figure
builders judge the archived data with the same call.  So a bound lives
here and nowhere else.

A known divergence keeps the paper's predicate and adds the repo's
``accepted`` one plus the EXPERIMENTS.md anchor that explains the gap; it
reads ⚠️ when only the paper's predicate fails.  Pure stdlib: a
simulation run never imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

PASS, DIVERGENT, FAIL, NO_DATA = "✅", "⚠️", "❌", "⬜"


@dataclass(frozen=True)
class Predicate:
    """``kind`` is ≥ (:func:`at_least`), > (:func:`above`), ≤
    (:func:`at_most`), < (:func:`below`) or … (:func:`between` ``bound``
    and ``upper``, both inclusive; :func:`equals` is the zero-width band)."""

    kind: str
    bound: float
    upper: Optional[float] = None

    def margin(self, value: float) -> float:
        """Signed distance to failure: positive holds with room to spare,
        negative fails; a strict kind also fails at 0."""
        if self.kind in "≥>":
            return value - self.bound
        if self.kind in "≤<":
            return self.bound - value
        return min(value - self.bound, self.upper - value)

    def holds(self, value: float) -> bool:
        margin = self.margin(value)
        return margin > 0 if self.kind in "><" else margin >= 0

    @property
    def scale(self) -> float:
        """What a margin is measured against: the band's width, else the
        bound's size (1 for a bound of 0); 0 for an exact equality."""
        if self.kind == "…":
            return self.upper - self.bound
        return abs(self.bound) or 1.0

    def __str__(self) -> str:
        if self.kind != "…":
            return f"{self.kind} {fmt(self.bound)}"
        if self.upper == self.bound:
            return f"= {fmt(self.bound)}"
        return f"{fmt(self.bound)} … {fmt(self.upper)}"


at_least, above, at_most, below, between = (
    partial(Predicate, kind) for kind in "≥>≤<…")


def equals(value: float) -> Predicate:
    return between(value, value)


def fmt(value: float, sign: str = "") -> str:
    """Four significant digits, thousands separators past 10,000."""
    if abs(value) >= 1e4 and math.isfinite(value):
        return f"{value:{sign},.0f}"
    return f"{value:{sign}.4g}"


@dataclass(frozen=True)
class Claim:
    id: str
    text: str
    measure: Callable[[Dict], float]
    predicate: Predicate
    section: str
    bench: str
    unit: str = "x"
    #: Known divergence: the repo's accepted predicate, and the
    #: EXPERIMENTS.md anchor explaining why the paper's one fails here.
    accepted: Optional[Predicate] = None
    anchor: str = ""

    @property
    def bound(self) -> str:
        if self.accepted is None:
            return str(self.predicate)
        return f"paper {self.predicate}; accepted {self.accepted}"


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    #: None when the data lacks what the claim reads (status ⬜).
    measured: Optional[float]
    #: Signed margin to failure (❌), in the claim's unit.
    margin: Optional[float]
    status: str

    @property
    def ok(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status in (FAIL, NO_DATA)

    @property
    def relative_margin(self) -> Optional[float]:
        """The margin over its predicate's :attr:`~Predicate.scale`, so
        claims in different units rank together; None without data or for
        an exact equality, whose margin is 0 whenever it holds."""
        scale = (self.claim.accepted or self.claim.predicate).scale
        return None if self.margin is None or not scale else self.margin / scale

    def __str__(self) -> str:
        claim = self.claim
        if self.measured is None:
            return f"{NO_DATA} {claim.id}: no data ({claim.text})"
        note = f" [EXPERIMENTS.md#{claim.anchor}]" if claim.anchor else ""
        return (f"{self.status} {claim.id}: {fmt(self.measured)}{claim.unit}, "
                f"needs {claim.bound}, margin {fmt(self.margin, '+')}"
                f"{note} ({claim.text})")


def _judge(claim: Claim, data: Dict) -> ClaimResult:
    try:
        value = float(claim.measure(data))
    except (LookupError, ValueError):  # key absent, or nothing to min
        return ClaimResult(claim, None, None, NO_DATA)
    judge = claim.accepted or claim.predicate
    status = (PASS if claim.predicate.holds(value) else
              DIVERGENT if judge.holds(value) else FAIL)
    return ClaimResult(claim, value, judge.margin(value), status)


def evaluate(claims: Sequence[Claim], data: Dict) -> List[ClaimResult]:
    """Judge every claim on one bench's recorded ``data``."""
    return [_judge(claim, data) for claim in claims]


def claims_for(bench: str) -> List[Claim]:
    return [claim for claim in CLAIMS if claim.bench == bench]


# ----------------------------------------------------------- measurements

def _ratio(num: float, den: float) -> float:
    return num / den if den else math.inf


def _of(key: str, num: str, den: str) -> Callable[[Dict], float]:
    """``data[key][num] / data[key][den]``."""
    return lambda d: _ratio(d[key][num], d[key][den])


def _ratios(rows: Dict[str, Dict], num: str, den: str,
            only: Optional[Sequence[str]] = None) -> List[float]:
    """Per-network ``num/den`` over ``only`` (default: every row)."""
    return [_ratio(rows[n][num], rows[n][den])
            for n in (rows if only is None else only) if n in rows]


def fig4_curves(data: Dict) -> Dict[str, Dict[int, float]]:
    """Figure 4's normalized curves, ``{"B2": {16: 1.3, ...}, "O4": ...}``,
    from the ``"n64/B4"``-keyed records."""
    curves: Dict[str, Dict[int, float]] = {}
    for key in ("normalized_by_pool", "normalized_by_opt"):
        for cell, value in data[key].items():
            size, param = cell.split("/", 1)
            curves.setdefault(param, {})[int(size[1:])] = float(value)
    return curves


def _fig4_worst(d: Dict, pick: Callable[[Dict[str, float]], float]) -> float:
    """Smallest ``pick({param: value})`` over the machine sizes."""
    curves = fig4_curves(d)
    sizes = next(iter(curves.values()))
    return min(pick({p: c[size] for p, c in curves.items()}) for size in sizes)


def _em3d_gains(d: Dict) -> List[float]:
    return _ratios(d["cycles_per_iteration"], "buffered", "nifdy")


def _scan(d: Dict, network: str, nic: str, delay: str = "no-delay") -> float:
    return d["scan_cycles"][f"{network}/{nic}/{delay}"]


#: Byte-wide fat trees whose plain radix scan serialises (Figure 9).
SERIALISING = ("fattree", "fattree-sf")


def _serialising(quantity: Callable[[str], float], pick=min) -> float:
    return pick(quantity(n) for n in SERIALISING)


def _bisection(d: Dict, num: str, den: str) -> float:
    rows = d["characteristics"]
    return _ratio(rows[num]["bisection_bytes_per_cycle"],
                  rows[den]["bisection_bytes_per_cycle"])


def _sweep_share(d: Dict, network: str, opts: Sequence[int]) -> float:
    """Best Table 3 sweep cell of ``network`` with O in ``opts``, over the
    network's best cell (keys look like ``"mesh2d/O=4/W=2"``)."""
    cells = [(int(key.split("/")[1][2:]), value)
             for key, value in d["sweep_cells"].items()
             if key.split("/")[0] == network]
    return max(v for o, v in cells if o in opts) / max(v for _, v in cells)


def _bandwidth(d: Dict, num: str, den: str, field: str = "measured") -> float:
    rows = d["bandwidth_bytes_per_cycle"]
    return _ratio(rows[num]["measured"], rows[den][field])


def _knee_gain(d: Dict, mode: str) -> float:
    curve = d["delivered"][mode]
    return curve[-1] / curve[-3]


def _nifdy_gain(d: Dict, network: str) -> float:
    return _ratio(d["delivered"][f"{network}/nifdy-"],
                  d["delivered"][f"{network}/plain"])


# ------------------------------------------------------------------ table

#: Topologies the paper singles out as blocking-prone (big NIFDY wins).
BLOCKING = ("torus2d", "fattree", "multibutterfly")

_FREE, _BARRED = "no NIFDY, no barriers", "no NIFDY, barriers"
_FLOW, _INORDER = "NIFDY- (flow ctl only)", "NIFDY (in-order used)"


def _synthetic(fig: str, on: Callable[..., Claim],
               plain_floor: float) -> List[Claim]:
    """The claims Figures 2 and 3 share on ``data["delivered"]``."""
    return [
        on(f"{fig}.nifdy_vs_plain", "NIFDY matches the bare NIC everywhere "
           "(worst NIFDY/plain)",
           lambda d: min(_ratios(d["delivered"], "nifdy-", "plain")),
           at_least(plain_floor)),
        on(f"{fig}.nifdy_vs_buffers", "NIFDY matches buffers alone "
           "everywhere (worst NIFDY/buffers)",
           lambda d: min(_ratios(d["delivered"], "nifdy-", "buffered")),
           at_least(0.90)),
        on(f"{fig}.blocking_vs_plain", "clear win on the blocking-prone "
           "networks (worst NIFDY/plain)",
           lambda d: min(_ratios(d["delivered"], "nifdy-", "plain", BLOCKING)),
           above(1.15)),
        on(f"{fig}.buffers_help", "buffers alone help over the bare NIC "
           "(networks where buffers < plain)",
           lambda d: sum(r["buffered"] < r["plain"]
                         for r in d["delivered"].values()),
           at_most(2), unit=" networks"),
    ]


def _em3d(fig: str, on: Callable[..., Claim]) -> List[Claim]:
    """The claims Figures 7 and 8 share on ``cycles_per_iteration`` (lower
    is better) and ``delivers_in_order``."""
    return [
        on(f"{fig}.flowctl_vs_buffers", "on reordering networks flow control "
           "alone ≈ buffers alone (worst NIFDY-/buffers cycles)",
           lambda d: max(_ratios(
               d["cycles_per_iteration"], "nifdy-", "buffered",
               [n for n, yes in d["delivers_in_order"].items() if not yes])),
           at_most(1.12)),
        on(f"{fig}.inorder_beats_buffers", "the in-order library beats "
           "buffers alone everywhere (worst buffers/NIFDY)",
           lambda d: min(_em3d_gains(d)), above(1.0)),
        on(f"{fig}.inorder_vs_flowctl", "the in-order library never loses "
           "to flow control alone (worst NIFDY/NIFDY- cycles)",
           lambda d: max(_ratios(d["cycles_per_iteration"], "nifdy", "nifdy-")),
           at_most(1.02)),
        on(f"{fig}.mean_gain", "mean buffers/NIFDY gain (paper: ~1.1x light, "
           "up to ~2x heavy)",
           lambda d: sum(_em3d_gains(d)) / len(_em3d_gains(d)), above(1.08)),
    ]


_fig2 = partial(Claim, section="Fig 2", bench="test_fig2_heavy_synthetic")
_fig3 = partial(Claim, section="Fig 3", bench="test_fig3_light_synthetic")
_fig4 = partial(Claim, section="Fig 4", bench="test_fig4_scalability")
_fig5 = partial(Claim, section="Fig 5", bench="test_fig5_cshift_congestion")
_fig6 = partial(Claim, section="Fig 6", bench="test_fig6_cshift_throughput")
_fig9 = partial(Claim, section="Fig 9, §4.5", bench="test_fig9_radix_scan")
_table2 = partial(Claim, section="Table 2, §2.4.3",
                  bench="test_table2_calibration")
_table3 = partial(Claim, section="Table 3",
                  bench="test_table3_characteristics")
_coll = partial(Claim, section="extension", bench="test_barrier_offload")
_model = partial(Claim, bench="test_model_validation")
_ablation = partial(Claim, bench="test_ablation_extensions")
_range = partial(Claim, section="§1", bench="test_ext_operating_range")
_hotspot = partial(Claim, section="§5", bench="test_ext_hotspot_throttling")
_adaptive = partial(Claim, section="§6.3", bench="test_ext_adaptive_mesh")

CLAIMS: List[Claim] = [
    *_synthetic("fig2", _fig2, 0.93),
    _fig2("fig2.blocking_vs_buffers", "ahead of buffers alone on the "
          "blocking-prone networks (worst NIFDY/buffers)",
          lambda d: min(_ratios(d["delivered"], "nifdy-", "buffered",
                                BLOCKING)),
          above(1.10)),
    *_synthetic("fig3", _fig3, 0.95),
    _fig3("fig3.nifdy_wins", "bulk dialogs put NIFDY ahead of plain "
          "(networks where NIFDY ≤ plain)",
          lambda d: sum(r["nifdy-"] <= r["plain"]
                        for r in d["delivered"].values()),
          at_most(2), unit=" networks"),

    _fig4("fig4.benefit_retained", "benefit kept from the smallest to the "
          "largest machine (worst B or O curve)",
          lambda d: min(c[max(c)] / c[min(c)]
                        for c in fig4_curves(d).values()),
          at_least(0.9)),
    _fig4("fig4.pool_helps", "more pool buffers never hurt much (worst B=8/B=2)",
          lambda d: _fig4_worst(d, lambda c: c["B8"] / c["B2"]),
          at_least(0.95)),
    _fig4("fig4.opt8_near_best", "O=8 is near the best O (worst O=8/best)",
          lambda d: _fig4_worst(
              d, lambda c: c["O8"] / max(c["O2"], c["O4"], c["O8"])),
          at_least(0.93)),

    _fig5("fig5.backlog", "NIFDY's mean peak backlog vs plain's (paper: "
          "clearly below)",
          _of("mean_peak_backlog", "nifdy", "plain"), at_most(1.0)),
    _fig5("fig5.finish", "the same transfer finishes no later under NIFDY",
          _of("finished_cycles", "nifdy", "plain"), at_most(1.0)),

    _fig6("fig6.inorder_vs_barriers", "in-order NIFDY vs optimized barriers",
          _of("words_per_kcycle", _INORDER, _BARRED), above(1.0)),
    _fig6("fig6.flow_vs_barriers", "flow control alone vs optimized barriers",
          _of("words_per_kcycle", _FLOW, _BARRED), above(1.0),
          accepted=at_least(0.92), anchor="divergence-2"),
    _fig6("fig6.flow_vs_free", "flow control alone vs free-running phases",
          _of("words_per_kcycle", _FLOW, _FREE), above(1.0)),
    _fig6("fig6.inorder_vs_flow", "in-order NIFDY vs flow control alone",
          _of("words_per_kcycle", _INORDER, _FLOW), above(1.0)),
    _fig6("fig6.barriers_vs_free", "barriers vs free-running phases (Strata)",
          _of("words_per_kcycle", _BARRED, _FREE), at_least(0.97)),

    *_em3d("fig7", partial(Claim, section="Fig 7",
                           bench="test_fig7_em3d_light")),
    *_em3d("fig8", partial(Claim, section="Fig 8",
                           bench="test_fig8_em3d_heavy")),

    _fig9("fig9.delay_rescue", "delays rescue the serialised fat-tree scan "
          "(worst plain/plain+delays; paper: ~8x)",
          lambda d: _serialising(lambda n: _ratio(
              _scan(d, n, "plain"), _scan(d, n, "plain", "delay"))),
          above(4.0)),
    _fig9("fig9.nifdy_rescue", "NIFDY's ack pacing rescues it by itself "
          "(worst plain/NIFDY)",
          lambda d: _serialising(lambda n: _ratio(
              _scan(d, n, "plain"), _scan(d, n, "nifdy"))),
          above(3.0)),
    _fig9("fig9.nifdy_vs_delays", "NIFDY alone beats the hand-tuned delays "
          "(worst NIFDY/plain+delays)",
          lambda d: _serialising(lambda n: _ratio(
              _scan(d, n, "nifdy"), _scan(d, n, "plain", "delay")), max),
          below(1.0)),
    _fig9("fig9.delays_matter_more", "delays matter far more without NIFDY "
          "(worst plain/NIFDY delay gain)",
          lambda d: _serialising(lambda n: _ratio(
              _scan(d, n, "plain") / _scan(d, n, "plain", "delay"),
              _scan(d, n, "nifdy") / _scan(d, n, "nifdy", "delay"))),
          above(1.0)),
    _fig9("fig9.cm5_nifdy_cost", "CM-5 scan: NIFDY costs only its round "
          "trip (NIFDY/plain)",
          lambda d: _ratio(_scan(d, "cm5", "nifdy"), _scan(d, "cm5", "plain")),
          below(3.0)),
    _fig9("fig9.coalesce", "coalesce phase without/with NIFDY (paper: "
          "virtually identical)",
          _of("coalesce_cycles", "plain", "nifdy"), between(0.9, 1.15)),

    _table2("table2.mesh_slope", "mesh2d per-hop cost (paper: 4)",
            lambda d: d["latency_fits"]["mesh2d"][0], between(3.5, 4.5),
            unit=" cycles/hop"),
    _table2("table2.fattree_slope", "fattree per-hop cost (paper: 5)",
            lambda d: d["latency_fits"]["fattree"][0], between(4.5, 5.5),
            unit=" cycles/hop"),
    _table2("table2.cm5_slope", "CM-5 per-hop cost (paper: round trips ~2x "
            "the full tree's)",
            lambda d: d["latency_fits"]["cm5"][0], between(14.0, 20.0),
            unit=" cycles/hop"),
    _table2("table2.butterfly_flat", "butterfly paths are one length "
            "(absolute slope)",
            lambda d: abs(d["latency_fits"]["butterfly"][0]), below(1.0),
            unit=" cycles/hop"),
    _table2("table2.butterfly_latency", "butterfly latency between mesh and "
            "CM-5 levels",
            lambda d: d["latency_fits"]["butterfly"][1], between(30, 120),
            unit=" cycles"),

    _table3("table3.tree_vs_mesh_bisection", "fat tree vs mesh bisection",
            lambda d: _bisection(d, "fattree", "mesh2d"), above(1.0)),
    _table3("table3.cm5_vs_mesh_bisection", "CM-5 variant vs mesh bisection",
            lambda d: _bisection(d, "cm5", "mesh2d"), at_most(1.0)),
    _table3("table3.cm5_vs_tree_bisection", "CM-5 variant vs fat tree "
            "bisection (paper: far below)",
            lambda d: _bisection(d, "cm5", "fattree"), below(0.25)),
    _table3("table3.fattree_max_hops", "fat tree max distance (§2.4.3)",
            lambda d: d["characteristics"]["fattree"]["max_hops"], equals(6),
            unit=" hops"),
    _table3("table3.mesh_max_hops", "8x8 mesh max distance (14 router hops "
            "+ 2 NIC links; pairs are sampled)",
            lambda d: d["characteristics"]["mesh2d"]["max_hops"],
            between(14, 16), unit=" hops"),
    _table3("table3.butterfly_constant_distance", "butterfly max - mean hops",
            lambda d: (d["characteristics"]["butterfly"]["max_hops"]
                       - d["characteristics"]["butterfly"]["avg_hops"]),
            equals(0), unit=" hops"),
    _table3("table3.mesh_small_o", "O ≤ 4 is near the mesh's best sweep cell",
            lambda d: _sweep_share(d, "mesh2d", (2, 4)), at_least(0.95)),
    _table3("table3.fattree_o8", "O=8 is near the fat tree's best sweep cell",
            lambda d: _sweep_share(d, "fattree", (8,)), at_least(0.93)),

    _coll("collectives.no_violations", "the NIC tree stays correct under "
          "load (invariant violations)",
          lambda d: sum(d["violations"].values()), equals(0),
          unit=" violations"),
    _coll("collectives.no_duplicates", "no contribution double-folded "
          "(duplicate collective packets)",
          lambda d: d["collectives"]["coll_duplicates"], equals(0),
          unit=" packets"),
    _coll("collectives.nic_vs_host", "NIC tree barrier over the idealised "
          "hardware barrier (mean latency)",
          _of("barrier_latency_mean", "nic", "host"), between(1.0, 6.0)),
    _coll("collectives.within_run", "slowest NIC barrier over the whole run",
          lambda d: _ratio(d["barrier_latency_max"]["nic"],
                           d["cycles"]["nic"]),
          below(1.0)),

    _model("model.eq1", "Equation 1 predicts the plain NIC "
           "(measured/predicted)",
           lambda d: _bandwidth(d, "plain", "plain", "predicted"),
           between(0.75, 1.25), section="§2.4, Eq. 1"),
    _model("model.scalar_roundtrip", "scalar NIFDY is round-trip limited "
           "(measured/predicted)",
           lambda d: _bandwidth(d, "nifdy scalar", "nifdy scalar", "predicted"),
           between(0.75, 1.25), section="§2.4.1"),
    _model("model.scalar_below_plain", "scalar NIFDY vs plain bandwidth",
           lambda d: _bandwidth(d, "nifdy scalar", "plain"), below(0.6),
           section="§2.4.1"),
    _model("model.bulk_restores", "a bulk dialog restores plain bandwidth",
           lambda d: _bandwidth(d, "nifdy bulk", "plain"), at_least(0.85),
           section="§2.4.2"),

    _ablation("ablation.ack_timing", "accept-time vs insert-time acks "
              "(delivered)",
              _of("ack_timing_delivered", "ack on accept", "ack on insert"),
              between(0.85, 1 / 0.85), section="footnote 2"),
    _ablation("ablation.ack_count", "combined vs per-packet acks (acks sent)",
              lambda d: _ratio(d["ack_combining"]["combined (W/2)"]["acks"],
                               d["ack_combining"]["per-packet"]["acks"]),
              below(0.7), section="§2.4.2"),
    _ablation("ablation.ack_cost", "combined vs per-packet acks (cycles)",
              lambda d: _ratio(d["ack_combining"]["combined (W/2)"]["cycles"],
                               d["ack_combining"]["per-packet"]["cycles"]),
              at_most(1.1), section="§2.4.2"),
    _ablation("ablation.retx_timeout", "retransmissions at timeout 400 minus "
              "at 3000",
              lambda d: (d["retx_timeout"]["400"]["retransmissions"]
                         - d["retx_timeout"]["3000"]["retransmissions"]),
              at_least(0), unit=" retransmissions", section="§6.2"),

    _range("range.light_load", "light load: plain-NIFDY gap over the larger",
           lambda d: (abs(d["delivered"]["plain"][0]
                          - d["delivered"]["nifdy-"][0])
                      / max(d["delivered"]["plain"][0],
                            d["delivered"]["nifdy-"][0])),
           at_most(0.1)),
    _range("range.knee", "past the knee: NIFDY's marginal gain over plain's",
           lambda d: _ratio(_knee_gain(d, "nifdy-"), _knee_gain(d, "plain")),
           above(1.0)),
    _range("range.full_blast", "full offered load: NIFDY/plain delivered",
           lambda d: _ratio(d["delivered"]["nifdy-"][-1],
                            d["delivered"]["plain"][-1]),
           above(1.1)),

    _hotspot("hotspot.vs_plain", "hot-spot drain time, NIFDY/plain",
             _of("cycles", "nifdy-", "plain"), at_most(1.02)),
    _hotspot("hotspot.vs_buffers", "hot-spot drain time, NIFDY/buffers",
             _of("cycles", "nifdy-", "buffered"), at_most(1.05)),

    _adaptive("adaptive.nifdy_wins", "adaptive mesh, NIFDY/plain delivered",
              lambda d: _nifdy_gain(d, "mesh2d-adaptive"), above(1.0)),
    _adaptive("adaptive.gain_vs_dor", "NIFDY gain, adaptive over "
              "dimension-order",
              lambda d: _ratio(_nifdy_gain(d, "mesh2d-adaptive"),
                               _nifdy_gain(d, "mesh2d")),
              at_least(0.95)),
]
