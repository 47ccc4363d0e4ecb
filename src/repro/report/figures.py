"""Figure builders: archived bench records -> plottable figure data.

One builder per evaluation artifact of the paper (Figures 2-9, Tables 2
and 3).  Each consumes the corresponding :class:`~repro.report.schema.
BenchRecord` and produces a :class:`FigureData`: the series to plot, the
paper's reference values to overlay (dashed lines / expected formulas),
and the page's claim rows, judged by :func:`~repro.report.claims.evaluate`
on the archived data -- the same table the benches assert.  Builders never
raise on missing or pre-schema data -- they return a figure marked
``missing`` so the report can fall back to the archived text and say
*why* the plot is absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, wraps
from typing import Callable, Dict, List, Optional, Sequence

from .claims import ClaimResult, claims_for, evaluate, fig4_curves
from .schema import BenchRecord


@dataclass
class PaperRef:
    """One paper-reference overlay: a labelled horizontal line (``value``
    set) or a purely textual anchor for the caption."""

    label: str
    value: Optional[float] = None


@dataclass
class Series:
    """One plotted series.  ``ys`` aligns with the figure's categories for
    bar charts, or with ``xs`` for line charts."""

    label: str
    ys: List[float]
    xs: Optional[List[float]] = None


@dataclass
class FigureData:
    """Everything the plotting and markdown layers need for one page."""

    name: str
    title: str
    kind: str = "bar"  # "bar" | "line"
    ylabel: str = ""
    xlabel: str = ""
    categories: List[str] = field(default_factory=list)
    series: List[Series] = field(default_factory=list)
    paper_refs: List[PaperRef] = field(default_factory=list)
    #: The bench's claims judged on the archived record (⬜ rows: the
    #: archive lacks what the claim reads, which counts as not holding).
    fidelity: List[ClaimResult] = field(default_factory=list)
    caption: str = ""
    #: Markdown table rows (first row = header); rendered under the plot.
    table: Optional[List[List[str]]] = None
    #: Reason the figure could not be built (data missing / pre-record
    #: archive); the page then embeds the archived text instead.
    missing: Optional[str] = None
    log_y: bool = False
    source_bench: str = ""


@dataclass(frozen=True)
class FigureSpec:
    """Registry row binding a report page to its bench and builder."""

    name: str
    title: str
    bench: str
    build: Callable[["FigureSpec", Optional[BenchRecord]], FigureData]


def _needs(*keys: str):
    """Builder decorator: a page marked ``missing`` (with the reason)
    unless the bench has an archived record holding every data key."""
    def wrap(build):
        @wraps(build)
        def checked(spec: FigureSpec, record: Optional[BenchRecord],
                    **kwargs) -> FigureData:
            absent = [key for key in keys if key not in record.data] \
                if record is not None else []
            if record is not None and not absent:
                return build(spec, record, **kwargs)
            reason = (f"bench {spec.bench} has no archived JSON"
                      if record is None else
                      f"bench {spec.bench} archive predates structured "
                      f"recording (missing data[{absent[0]!r}]); re-run the "
                      "bench to regenerate")
            return FigureData(name=spec.name, title=spec.title,
                              missing=reason, source_bench=spec.bench)
        return checked
    return wrap


def _figure(spec: FigureSpec, record: BenchRecord, **fields) -> FigureData:
    """A page for ``spec`` carrying its claims judged on ``record``."""
    return FigureData(
        name=spec.name, title=spec.title, source_bench=spec.bench,
        fidelity=evaluate(claims_for(spec.bench), record.data), **fields,
    )


# ---------------------------------------------------------------- Fig 2 / 3

_SYNTH_MODES = ("plain", "buffered", "nifdy-")
_MODE_LABELS = {"plain": "no NIFDY", "buffered": "buffers only",
                "nifdy-": "NIFDY"}


@_needs("delivered")
def _build_synthetic(spec: FigureSpec, record: Optional[BenchRecord],
                     heavy: bool) -> FigureData:
    rows: Dict[str, Dict[str, int]] = record.data["delivered"]
    networks = list(rows)
    fig = _figure(
        spec, record, kind="bar",
        ylabel=f"packets delivered in {record.bench_cycles:,} cycles",
        categories=networks,
        series=[
            Series(_MODE_LABELS[mode],
                   [float(rows[n].get(mode, 0)) for n in networks])
            for mode in _SYNTH_MODES
        ],
        paper_refs=[PaperRef(
            "paper: NIFDY ≥ buffers ≥ plain on every congestible "
            "topology" + ("" if heavy else "; NIFDY wins everywhere"),
        )],
    )
    fig.table = [["network"] + [_MODE_LABELS[m] for m in _SYNTH_MODES]
                 + ["NIFDY/plain"]]
    for n in networks:
        fig.table.append(
            [n] + [f"{rows[n].get(m, 0):,}" for m in _SYNTH_MODES]
            + [f"{rows[n]['nifdy-'] / rows[n]['plain']:.2f}x"
               if rows[n].get("plain") else "–"]
        )
    fig.caption = (
        "Fixed-window synthetic throughput per NIC configuration "
        "(Figure 2's bars exclude the in-order payload benefit, exactly as "
        "the paper's caption notes)." if heavy else
        "Light traffic (1/3 senders, long-message tail): the bulk window "
        "carries the long messages, so NIFDY leads on all eight networks."
    )
    return fig


# -------------------------------------------------------------------- Fig 4

@_needs("normalized_by_pool", "normalized_by_opt")
def build_fig4(spec: FigureSpec, record: Optional[BenchRecord]) -> FigureData:
    fig = _figure(
        spec, record, kind="line",
        ylabel="delivered, normalized to no-NIFDY at each size",
        xlabel="machine size (nodes)",
        paper_refs=[PaperRef("no-NIFDY baseline", 1.0)],
    )
    all_curves = fig4_curves(record.data)
    for param in sorted(all_curves):
        curve = all_curves[param]
        sizes = sorted(curve)
        fig.series.append(Series(
            param, xs=[float(s) for s in sizes], ys=[curve[s] for s in sizes],
        ))
    fig.caption = (
        "Full fat tree, short messages, no bulk dialogs; each curve is one "
        "buffer-pool (B) or OPT (O) size, normalized to the no-NIFDY "
        "baseline at the same machine size."
    )
    return fig


# -------------------------------------------------------------------- Fig 5

@_needs("mean_peak_backlog", "finished_cycles")
def build_fig5(spec: FigureSpec, record: Optional[BenchRecord]) -> FigureData:
    data = record.data
    configs = list(data["mean_peak_backlog"])
    fig = _figure(
        spec, record, kind="bar",
        ylabel="pending packets per receiver",
        categories=configs,
        series=[
            Series("mean peak backlog",
                   [float(data["mean_peak_backlog"][c]) for c in configs]),
            Series("worst backlog",
                   [float(data["worst_backlog"][c]) for c in configs]),
        ],
        paper_refs=[PaperRef(
            "paper: without NIFDY perturbations snowball (≥20 pending); "
            "with NIFDY they dissipate"
        )],
    )
    fig.table = [["configuration", "finished (cycles)", "mean peak backlog",
                  "worst backlog"]]
    for c in configs:
        fig.table.append([
            c, f"{data['finished_cycles'][c]:,}",
            f"{data['mean_peak_backlog'][c]:.2f}",
            f"{data['worst_backlog'][c]}",
        ])
    fig.caption = (
        "C-shift on the 32-active-node CM-5 tree without barriers.  Our "
        "pile-ups are milder than the paper's because even the plain NIC "
        "exerts FIFO backpressure; the heatmaps live in the bench's text "
        "archive."
    )
    return fig


# -------------------------------------------------------------------- Fig 6

@_needs("words_per_kcycle")
def build_fig6(spec: FigureSpec, record: Optional[BenchRecord]) -> FigureData:
    tput: Dict[str, float] = record.data["words_per_kcycle"]
    configs = list(tput)
    fig = _figure(
        spec, record, kind="bar",
        ylabel="words per kcycle",
        categories=configs,
        series=[Series("C-shift throughput", [float(tput[c]) for c in configs])],
    )
    fig.caption = (
        "C-shift words/kcycle across the four software configurations.  "
        "EXPERIMENTS.md divergence 2 (`fig6.flow_vs_barriers`): NIFDY- "
        "lands behind the optimized-barrier bar because the simulated "
        "CM-5 barrier is nearly free and the C-shift offers no "
        "alternate-destination work."
    )
    return fig


# ---------------------------------------------------------------- Fig 7 / 8

@_needs("cycles_per_iteration")
def _build_em3d(spec: FigureSpec, record: Optional[BenchRecord],
                heavy: bool) -> FigureData:
    rows: Dict[str, Dict[str, float]] = record.data["cycles_per_iteration"]
    networks = list(rows)
    gains = {n: rows[n]["buffered"] / rows[n]["nifdy"] for n in networks}
    fig = _figure(
        spec, record, kind="bar",
        ylabel="gain: buffers-only / NIFDY cycles per iteration",
        categories=networks,
        series=[Series("in-order gain", [round(gains[n], 3) for n in networks])],
        paper_refs=[
            PaperRef("parity (no gain)", 1.0),
            PaperRef(
                "paper: up to ~2x for heavy all-to-all patterns" if heavy
                else "paper: ~10% under light communication",
                2.0 if heavy else 1.10,
            ),
        ],
    )
    modes = ("plain", "buffered", "nifdy-", "nifdy")
    fig.table = [["network"] + list(modes) + ["gain"]]
    for n in networks:
        fig.table.append(
            [n] + [f"{rows[n][m]:,.0f}" for m in modes]
            + [f"{gains[n]:.2f}x"]
        )
    fig.caption = (
        "EM3D cycles per iteration (table; lower is better) and the "
        "buffers-only/NIFDY gain (bars).  On the in-order-by-construction "
        "meshes and butterfly the margin is the paper's ~10%-or-less; on "
        "reordering fabrics it is large"
        + (" and grows with communication volume." if heavy else ".")
    )
    return fig


# -------------------------------------------------------------------- Fig 9

@_needs("scan_cycles")
def build_fig9(spec: FigureSpec, record: Optional[BenchRecord]) -> FigureData:
    # keys: "<network>/<nic>/<delay|no-delay>"
    scans: Dict[str, int] = record.data["scan_cycles"]
    networks = list(dict.fromkeys(key.split("/")[0] for key in scans))
    combos = (("plain/no-delay", "plain"), ("plain/delay", "plain + delays"),
              ("nifdy/no-delay", "NIFDY"), ("nifdy/delay", "NIFDY + delays"))
    fig = _figure(
        spec, record, kind="bar",
        ylabel="cycles for one 128-bucket scan (log scale)",
        categories=networks, log_y=True,
        series=[Series(label, [float(scans.get(f"{n}/{cell}", 0))
                               for n in networks])
                for cell, label in combos],
    )
    fig.caption = (
        "Radix-sort scan: without NIFDY the byte-wide fat trees serialise "
        "(sender swamps the next pipeline stage); the locally restrictive "
        "protocol yields more global throughput.  EXPERIMENTS.md "
        "divergence 3 covers the CM-5 row."
    )
    return fig


# ------------------------------------------------------------------ Table 2

#: The paper's uncontended latency formulas (Section 2.4.3): slope
#: cycles/hop and head-latency intercept.
PAPER_LATENCY_FITS = {"mesh2d": (4.0, 14.0), "fattree": (5.0, 2.0)}


@_needs("latency_fits")
def build_table2(spec: FigureSpec, record: Optional[BenchRecord]) -> FigureData:
    fits: Dict[str, Sequence[float]] = record.data["latency_fits"]
    fig = _figure(
        spec, record, kind="line",
        ylabel="uncontended tail-arrival latency (cycles)",
        xlabel="distance (hops)",
    )
    distances = [1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0]
    for name in fits:
        slope, intercept = fits[name]
        fig.series.append(Series(
            f"{name} measured: {slope:.1f}d + {intercept:.0f}",
            xs=distances, ys=[slope * d + intercept for d in distances],
        ))
    for name, (slope, intercept) in PAPER_LATENCY_FITS.items():
        if name in fits:
            fig.series.append(Series(
                f"{name} paper: {slope:.0f}d + {intercept:.0f} (head)",
                xs=distances, ys=[slope * d + intercept for d in distances],
            ))
    fig.paper_refs.append(PaperRef(
        "paper formulas are head latency; our intercept adds the 7-flit "
        "tail streaming time"
    ))
    costs = record.data.get("software_costs", {})
    fig.table = [["quantity", "cycles (paper = simulator constant)"]]
    for label, value in costs.items():
        fig.table.append([label, str(value)])
    for name in fits:
        slope, intercept = fits[name]
        paper = PAPER_LATENCY_FITS.get(name)
        fig.table.append([
            f"{name} latency fit",
            f"T(d) = {slope:.1f}d + {intercept:.1f}"
            + (f"  (paper: {paper[0]:.0f}d + {paper[1]:.0f})" if paper else ""),
        ])
    fig.caption = (
        "Simulator calibration: measured uncontended latency fits against "
        "the paper's Section 2.4.3 formulas (dashed paper lines are head "
        "latency; the offset is the 8-word packet's tail streaming time)."
    )
    return fig


# ------------------------------------------------------------------ Table 3

@_needs("characteristics")
def build_table3(spec: FigureSpec, record: Optional[BenchRecord]) -> FigureData:
    rows: Dict[str, Dict] = record.data["characteristics"]
    networks = list(rows)
    fig = _figure(
        spec, record, kind="bar",
        ylabel="bytes/cycle across the bisection",
        categories=networks,
        series=[Series(
            "bisection bandwidth",
            [float(rows[n]["bisection_bytes_per_cycle"]) for n in networks],
        )],
    )
    fig.table = [["network", "volume (words/node)", "bisection (B/cycle)",
                  "avg/max hops", "in-order", "latency fit"]]
    for n in networks:
        row = rows[n]
        fig.table.append([
            n, f"{row['volume_words_per_node']:.1f}",
            f"{row['bisection_bytes_per_cycle']:.1f}",
            f"{row['avg_hops']:.1f} / {row['max_hops']}",
            "yes" if row["delivers_in_order"] else "no",
            row.get("formula", ""),
        ])
    best = record.data.get("best_params", {})
    if best:
        fig.table.append(["", "", "", "", "", ""])
        for network, cell in best.items():
            fig.table.append([
                f"{network} best (O, W)", cell, "", "", "", "",
            ])
    fig.caption = (
        "Measured 64-node network characteristics (left half of the "
        "paper's Table 3) and the swept best (O, W) choices (right half).  "
        "EXPERIMENTS.md divergence 1 covers the butterfly's bulk window."
    )
    return fig


# -------------------------------------------------------------- Collectives

@_needs("barrier_latency_mean", "barrier_latency_p99")
def build_collectives(spec: FigureSpec,
                      record: Optional[BenchRecord]) -> FigureData:
    data = record.data
    means: Dict[str, float] = data["barrier_latency_mean"]
    p99s: Dict[str, float] = data["barrier_latency_p99"]
    modes = list(means)
    fig = _figure(
        spec, record, kind="bar",
        ylabel="barrier latency (cycles, arrive → release)",
        categories=modes,
        series=[
            Series("mean", [float(means[m]) for m in modes]),
            Series("p99", [float(p99s[m]) for m in modes]),
        ],
        paper_refs=[PaperRef(
            "'host' models a dedicated hardware barrier (fixed release "
            "cost, no data-network traffic); 'nic' runs the combining tree "
            "over the loaded request/reply networks"
        )],
    )
    maxima = data.get("barrier_latency_max", {})
    cycles = data.get("cycles", {})
    fig.table = [["barrier", "mean", "p99", "max", "run cycles"]]
    for m in modes:
        fig.table.append([
            m, f"{float(means[m]):.0f}", f"{p99s[m]}",
            f"{maxima.get(m, '')}",
            f"{cycles[m]:,}" if m in cycles else "",
        ])
    fig.caption = (
        "Driver-verified allreduce with heavy background traffic: barriers "
        "either run as a host-side flat combine (a stand-in for the CM-5's "
        "dedicated control network) or as NIFDY collective packets on a "
        "k-ary combining tree -- the combined ack IS the reduction op "
        "(docs/protocol.md, NIC-offloaded collectives)."
    )
    return fig


#: The report's page order: every evaluation artifact of the paper.
FIGURES: List[FigureSpec] = [
    FigureSpec("fig2", "Figure 2 · heavy synthetic throughput",
               "test_fig2_heavy_synthetic",
               partial(_build_synthetic, heavy=True)),
    FigureSpec("fig3", "Figure 3 · light synthetic throughput",
               "test_fig3_light_synthetic",
               partial(_build_synthetic, heavy=False)),
    FigureSpec("fig4", "Figure 4 · scalability with machine size",
               "test_fig4_scalability", build_fig4),
    FigureSpec("fig5", "Figure 5 · C-shift congestion",
               "test_fig5_cshift_congestion", build_fig5),
    FigureSpec("fig6", "Figure 6 · C-shift throughput",
               "test_fig6_cshift_throughput", build_fig6),
    FigureSpec("fig7", "Figure 7 · EM3D, light communication",
               "test_fig7_em3d_light", partial(_build_em3d, heavy=False)),
    FigureSpec("fig8", "Figure 8 · EM3D, heavy communication",
               "test_fig8_em3d_heavy", partial(_build_em3d, heavy=True)),
    FigureSpec("fig9", "Figure 9 · radix-sort scan",
               "test_fig9_radix_scan", build_fig9),
    FigureSpec("table2", "Table 2 · calibration vs the CM-5",
               "test_table2_calibration", build_table2),
    FigureSpec("table3", "Table 3 · network characteristics",
               "test_table3_characteristics", build_table3),
    FigureSpec("collectives", "Extension · NIC-offloaded vs host barriers",
               "test_barrier_offload", build_collectives),
]
