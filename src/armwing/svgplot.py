"""Deterministic SVG line plots for trajectories and sensitivity families.

The renderer is intentionally small: polyline series on a single pair of
axes, with the family color convention used throughout the project docs.
Series at scale 1.0 draw black, scaled-up variants draw in greens and
scaled-down variants in reds, deepening with distance from nominal.  The
output contains no timestamps or random ids, so the same inputs always
produce the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch

__all__ = ["Series", "PlotSpec", "render_svg", "write_svg"]

_WIDTH = 720  # pixels; every plot has this size and data-derived axes
_HEIGHT = 480
_MARGIN_L = 64.0
_MARGIN_R = 18.0
_MARGIN_T = 34.0
_MARGIN_B = 46.0


@dataclass
class Series:
    """One polyline: x/y samples plus the scale factor that colors it."""

    name: str
    x: np.ndarray
    y: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError(f"series {self.name!r}: x and y must be equal-length 1-D")
        if len(self.x) < 2:
            raise ValueError(f"series {self.name!r}: need at least 2 samples")


@dataclass
class PlotSpec:
    """What to draw: one or more series sharing a sample grid."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)


def _series_color(scale: float) -> str:
    """Family color: black nominal, green for scale > 1, red for scale < 1."""
    if scale == 1.0:
        return "#000000"
    depth = min(abs(scale - 1.0) / 0.10, 1.0)
    if scale > 1.0:
        # light green toward forest green
        lo, hi = (134, 203, 146), (18, 94, 47)
    else:
        # light red toward brick red
        lo, hi = (236, 154, 146), (158, 23, 15)
    rgb = tuple(int(round(a + (b - a) * depth)) for a, b in zip(lo, hi))
    return "#%02x%02x%02x" % rgb


def _ticks(lo: float, hi: float, count: int = 5) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def _data_range(values: list[np.ndarray]) -> tuple[float, float]:
    """The padded (lo, hi) of an axis over the finite ``values``.
    ValueError when its span hi - lo is not finite or is zero: the data are
    too far apart, or too large for the padding to move them, and every
    pixel would be NaN.  A finite span maps every finite sample, which lies
    inside it, to a finite pixel."""
    stacked = np.concatenate(values)
    finite = stacked[np.isfinite(stacked)]
    if len(finite) == 0:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = float(finite.min()), float(finite.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    span = (hi + pad) - (lo - pad)
    if not (math.isfinite(span) and span != 0.0):
        raise ValueError(f"values from {lo:.6g} to {hi:.6g} give no finite, nonzero axis span")
    return lo - pad, hi + pad


def render_svg(plot: PlotSpec) -> str:
    """Render the plot to an SVG string.

    Each series maps to pixels as whole arrays and draws as polylines of
    "x,y" pairs at two decimals, split wherever a pixel is not finite.

    Raises ValueError when no series are given or an axis span is not
    finite (see _data_range), and GridMismatch when the overlaid series do
    not share one sample count.
    """
    if not plot.series:
        raise ValueError("plot needs at least one series")
    counts = {len(s.x) for s in plot.series}
    if len(counts) > 1:
        raise GridMismatch(
            "overlaid series have different sample counts: "
            + ", ".join(str(c) for c in sorted(counts))
        )

    x_lo, x_hi = _data_range([s.x for s in plot.series])
    y_lo, y_hi = _data_range([s.y for s in plot.series])
    w, h = float(_WIDTH), float(_HEIGHT)
    px_lo, px_hi = _MARGIN_L, w - _MARGIN_R
    py_lo, py_hi = h - _MARGIN_B, _MARGIN_T

    def sx(x):
        return px_lo + (x - x_lo) / (x_hi - x_lo) * (px_hi - px_lo)

    def sy(y):
        return py_lo + (y - y_lo) / (y_hi - y_lo) * (py_hi - py_lo)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{w / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{plot.title}</text>'
    )
    # axes box and ticks
    out.append(
        f'<rect x="{px_lo:.1f}" y="{py_hi:.1f}" width="{px_hi - px_lo:.1f}" '
        f'height="{py_lo - py_hi:.1f}" fill="none" stroke="#333333"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{sx(tx):.2f}" y1="{py_lo:.1f}" x2="{sx(tx):.2f}" '
            f'y2="{py_lo + 5:.1f}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{sx(tx):.2f}" y="{py_lo + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tx:.6g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{px_lo - 5:.1f}" y1="{sy(ty):.2f}" x2="{px_lo:.1f}" '
            f'y2="{sy(ty):.2f}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{px_lo - 8:.1f}" y="{sy(ty) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{ty:.6g}</text>'
        )
    out.append(
        f'<text x="{(px_lo + px_hi) / 2:.1f}" y="{h - 10:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{plot.x_label}</text>'
    )
    out.append(
        f'<text x="16" y="{(py_lo + py_hi) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(py_lo + py_hi) / 2:.1f})">{plot.y_label}</text>'
    )
    # series: draw scaled variants first so nominal lands on top
    ordered = sorted(
        range(len(plot.series)),
        key=lambda i: (plot.series[i].scale == 1.0, i),
    )
    for i in ordered:
        s = plot.series[i]
        color = _series_color(s.scale)
        width_px = 2.0 if s.scale == 1.0 else 1.3
        # sx and sy map whole arrays with the float operations they apply to
        # one sample, so each coordinate is the double a per-sample call gives.
        # Only a non-finite sample maps to a non-finite pixel: the line
        # splits there.
        px, py = sx(s.x), sy(s.y)
        finite = (np.isfinite(px) & np.isfinite(py)).tolist()
        pts = []
        for keep, u, v in zip(finite, px.tolist(), py.tolist()):
            if keep:
                pts.append("%.2f,%.2f" % (u, v))
            elif pts:
                out.append(
                    f'<polyline points="{" ".join(pts)}" fill="none" '
                    f'stroke="{color}" stroke-width="{width_px}"/>'
                )
                pts = []
        if pts:
            out.append(
                f'<polyline points="{" ".join(pts)}" fill="none" '
                f'stroke="{color}" stroke-width="{width_px}"/>'
            )
    # legend
    ly = _MARGIN_T + 6.0
    for s in plot.series:
        color = _series_color(s.scale)
        out.append(
            f'<line x1="{px_hi - 150:.1f}" y1="{ly:.1f}" x2="{px_hi - 126:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="3"/>'
        )
        out.append(
            f'<text x="{px_hi - 120:.1f}" y="{ly + 4:.1f}" '
            f'font-family="sans-serif" font-size="11">{s.name}</text>'
        )
        ly += 16.0
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(plot: PlotSpec, path) -> None:
    from pathlib import Path

    Path(path).write_text(render_svg(plot), encoding="utf-8")
