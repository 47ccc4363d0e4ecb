"""Render :class:`~repro.report.figures.FigureData` to image files.

One small deterministic SVG renderer (pure stdlib, byte-stable output for
the same input -- which is what the report tests diff), so a report does
not depend on what the host has installed.  It draws grouped bars or
marker lines, dashed paper-reference overlay lines, a legend, and tick
labels.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .figures import FigureData

# Okabe-Ito palette: colorblind-safe, stable ordering.
PALETTE = ("#0072B2", "#E69F00", "#009E73", "#D55E00",
           "#CC79A7", "#56B4E9", "#F0E442", "#000000")

_W, _H = 880, 460
_ML, _MR, _MT, _MB = 72, 24, 46, 64


def _fmt(value: float) -> str:
    """Deterministic short number formatting for tick/coordinate output."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def nice_ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """~n round tick values covering [lo, hi] (linear scale)."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mag * mult
        if span / step <= n:
            break
    first = math.floor(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        if t >= lo - step * 1e-9:
            ticks.append(round(t, 10))
        t += step
    return ticks or [lo, hi]


def _log_ticks(lo: float, hi: float) -> List[float]:
    lo = max(lo, 1e-12)
    ticks = []
    e = math.floor(math.log10(lo))
    while 10.0 ** e <= hi * 1.0001:
        if 10.0 ** e >= lo * 0.9999:
            ticks.append(10.0 ** e)
        e += 1
    return ticks or [lo, hi]


def _value_range(fig: FigureData) -> Tuple[float, float]:
    values = [y for s in fig.series for y in s.ys]
    values += [r.value for r in fig.paper_refs if r.value is not None]
    if not values:
        values = [0.0, 1.0]
    lo, hi = min(values), max(values)
    if fig.log_y:
        lo = min((v for v in values if v > 0), default=1.0)
        return lo / 1.5, hi * 1.5 if hi > 0 else 1.0
    if lo > 0 and fig.kind == "bar":
        lo = 0.0  # bars grow from zero
    pad = (hi - lo) * 0.08 or abs(hi) * 0.08 or 1.0
    return lo, hi + pad


class _Svg:
    """Tiny deterministic SVG builder."""

    def __init__(self, width: int, height: int) -> None:
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}" '
            f'font-family="Helvetica,Arial,sans-serif">',
            f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        ]

    def line(self, x1: float, y1: float, x2: float, y2: float, color: str,
             width: float = 1.0, dash: str = "") -> None:
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(round(x1, 2))}" y1="{_fmt(round(y1, 2))}" '
            f'x2="{_fmt(round(x2, 2))}" y2="{_fmt(round(y2, 2))}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"{d}/>'
        )

    def rect(self, x: float, y: float, w: float, h: float, fill: str) -> None:
        self.parts.append(
            f'<rect x="{_fmt(round(x, 2))}" y="{_fmt(round(y, 2))}" '
            f'width="{_fmt(round(w, 2))}" height="{_fmt(round(h, 2))}" '
            f'fill="{fill}"/>'
        )

    def circle(self, x: float, y: float, r: float, fill: str) -> None:
        self.parts.append(
            f'<circle cx="{_fmt(round(x, 2))}" cy="{_fmt(round(y, 2))}" '
            f'r="{_fmt(r)}" fill="{fill}"/>'
        )

    def polyline(self, pts: Sequence[Tuple[float, float]], color: str) -> None:
        coords = " ".join(
            f"{_fmt(round(x, 2))},{_fmt(round(y, 2))}" for x, y in pts
        )
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )

    def text(self, x: float, y: float, s: str, size: int = 12,
             anchor: str = "start", color: str = "#222222",
             rotate: Optional[float] = None) -> None:
        tr = (f' transform="rotate({_fmt(rotate)} {_fmt(round(x, 2))} '
              f'{_fmt(round(y, 2))})"' if rotate else "")
        self.parts.append(
            f'<text x="{_fmt(round(x, 2))}" y="{_fmt(round(y, 2))}" '
            f'font-size="{size}" text-anchor="{anchor}" '
            f'fill="{color}"{tr}>{_esc(s)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def render_svg(fig: FigureData) -> str:
    """Render a figure to a deterministic standalone SVG string."""
    svg = _Svg(_W, _H)
    lo, hi = _value_range(fig)
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    if fig.log_y:
        llo, lhi = math.log10(max(lo, 1e-12)), math.log10(max(hi, lo * 10))

        def ypix(v: float) -> float:
            f = (math.log10(max(v, 1e-12)) - llo) / (lhi - llo or 1.0)
            return _MT + plot_h * (1.0 - f)

        ticks = _log_ticks(lo, hi)
    else:

        def ypix(v: float) -> float:
            f = (v - lo) / ((hi - lo) or 1.0)
            return _MT + plot_h * (1.0 - f)

        ticks = nice_ticks(lo, hi)

    svg.text(_ML, 22, fig.title, size=15, color="#000000")
    # gridlines + y ticks
    for t in ticks:
        y = ypix(t)
        svg.line(_ML, y, _W - _MR, y, "#dddddd")
        label = _fmt(t) if abs(t) < 1e6 else f"{t:.1e}"
        svg.text(_ML - 6, y + 4, label, size=11, anchor="end",
                 color="#555555")
    # axes
    svg.line(_ML, _MT, _ML, _MT + plot_h, "#333333")
    svg.line(_ML, _MT + plot_h, _W - _MR, _MT + plot_h, "#333333")
    if fig.ylabel:
        svg.text(16, _MT + plot_h / 2, fig.ylabel, size=12, anchor="middle",
                 rotate=-90.0)
    if fig.xlabel:
        svg.text(_ML + plot_w / 2, _H - 10, fig.xlabel, size=12,
                 anchor="middle")

    if fig.kind == "bar":
        cats = fig.categories or [""]
        ncat, nser = len(cats), max(len(fig.series), 1)
        slot = plot_w / ncat
        bar_w = min(slot * 0.8 / nser, 46.0)
        group_w = bar_w * nser
        base = ypix(max(lo, min(0.0, hi)) if not fig.log_y else lo)
        for si, series in enumerate(fig.series):
            color = PALETTE[si % len(PALETTE)]
            for ci, value in enumerate(series.ys):
                x = _ML + slot * ci + (slot - group_w) / 2 + bar_w * si
                y = ypix(value)
                top, bot = min(y, base), max(y, base)
                svg.rect(x, top, bar_w - 1.5, max(bot - top, 0.5), color)
        for ci, cat in enumerate(cats):
            svg.text(_ML + slot * (ci + 0.5), _MT + plot_h + 16,
                     str(cat)[:18], size=11, anchor="middle")
    else:  # line
        xs_all = [x for s in fig.series for x in (s.xs or
                  range(len(s.ys)))]
        xlo, xhi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)

        def xpix(v: float) -> float:
            f = (v - xlo) / ((xhi - xlo) or 1.0)
            return _ML + plot_w * f

        for si, series in enumerate(fig.series):
            color = PALETTE[si % len(PALETTE)]
            xs = series.xs or list(range(len(series.ys)))
            pts = [(xpix(x), ypix(y)) for x, y in zip(xs, series.ys)]
            if len(pts) > 1:
                svg.polyline(pts, color)
            for px, py in pts:
                svg.circle(px, py, 3.2, color)
        if fig.categories and len(fig.categories) == len(set(xs_all)):
            for x, cat in zip(sorted(set(xs_all)), fig.categories):
                svg.text(xpix(x), _MT + plot_h + 16, str(cat)[:14],
                         size=10, anchor="middle")
        else:
            for t in nice_ticks(xlo, xhi, 6):
                svg.text(xpix(t), _MT + plot_h + 16, _fmt(t), size=11,
                         anchor="middle")

    # paper-reference overlay lines
    for ri, ref in enumerate(fig.paper_refs):
        if ref.value is None:
            continue
        y = ypix(ref.value)
        svg.line(_ML, y, _W - _MR, y, "#666666", width=1.4, dash="7 4")
        svg.text(_W - _MR - 4, y - 5, ref.label[:60], size=10, anchor="end",
                 color="#666666")

    # legend (top-right, one row per series)
    lx = _W - _MR - 230
    ly = _MT + 6
    for si, series in enumerate(fig.series):
        color = PALETTE[si % len(PALETTE)]
        svg.rect(lx, ly + si * 17, 11, 11, color)
        svg.text(lx + 16, ly + si * 17 + 10, series.label[:40], size=11)
    return svg.render()


def render_figure(fig: FigureData, out_dir: Path) -> Path:
    """Render ``fig`` as ``<out_dir>/<name>.svg`` and return the path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{fig.name}.svg"
    path.write_text(render_svg(fig))
    return path
