"""Deterministic SVG line charts with shaded confidence bands.

Text-only output on a fixed 800x600 viewBox, so identical inputs produce
byte-identical files that can be diffed in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 78, 24, 28, 64


class PlotError(ValueError):
    pass


@dataclass(frozen=True)
class Series:
    name: str
    x: tuple[float, ...]
    estimate: tuple[float, ...]
    low: tuple[float, ...]
    high: tuple[float, ...]

    def __post_init__(self):
        n = len(self.x)
        if not (len(self.estimate) == len(self.low) == len(self.high) == n):
            raise PlotError(f"series {self.name!r} has unequal array lengths")
        if n == 0:
            raise PlotError(f"series {self.name!r} is empty")
        for lo, est, hi in zip(self.low, self.estimate, self.high):
            if not lo <= est <= hi:
                raise PlotError(f"series {self.name!r}: band does not bracket estimate")


@dataclass(frozen=True)
class PlotSpec:
    x_label: str
    y_label: str
    series: tuple[Series, ...]
    y_range: Optional[tuple[float, float]] = (0.0, 1.0)

    def __post_init__(self):
        if not self.series:
            raise PlotError("plot needs at least one series")


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Round-number tick positions covering [lo, hi], at most six of them."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5  # the step of six ticks; a round step is no smaller
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    i0 = math.ceil(lo / step - 1e-9)
    i1 = math.floor(hi / step + 1e-9)
    return [round(i * step, 12) + 0.0 for i in range(i0, i1 + 1)]


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def _coord(v: float) -> str:
    return f"{v:.2f}"


def render(spec: PlotSpec) -> str:
    """Render the plot to an SVG string."""
    xs = [v for s in spec.series for v in s.x]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if spec.y_range is not None:
        y_lo, y_hi = spec.y_range
    else:
        vals_lo = min(v for s in spec.series for v in s.low)
        vals_hi = max(v for s in spec.series for v in s.high)
        pad = 0.05 * (vals_hi - vals_lo or 1.0)
        y_lo, y_hi = vals_lo - pad, vals_hi + pad

    px0, px1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    py0, py1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP

    def sx(v: float) -> float:
        return px0 + (v - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(v: float) -> float:
        return py0 + (v - y_lo) / (y_hi - y_lo) * (py1 - py0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="sans-serif" font-size="14">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    for t in nice_ticks(x_lo, x_hi):
        if not x_lo - 1e-9 <= t <= x_hi + 1e-9:
            continue
        x = sx(t)
        parts.append(f'<line x1="{_coord(x)}" y1="{py0}" x2="{_coord(x)}" '
                     f'y2="{py0 + 6}" stroke="#333"/>')
        parts.append(f'<text x="{_coord(x)}" y="{py0 + 22}" text-anchor="middle">'
                     f'{_fmt_tick(t)}</text>')
    for t in nice_ticks(y_lo, y_hi):
        if not y_lo - 1e-9 <= t <= y_hi + 1e-9:
            continue
        y = sy(t)
        parts.append(f'<line x1="{px0 - 6}" y1="{_coord(y)}" x2="{px0}" '
                     f'y2="{_coord(y)}" stroke="#333"/>')
        parts.append(f'<text x="{px0 - 10}" y="{_coord(y + 5)}" text-anchor="end">'
                     f'{_fmt_tick(t)}</text>')
        parts.append(f'<line x1="{px0}" y1="{_coord(y)}" x2="{px1}" '
                     f'y2="{_coord(y)}" stroke="#eee"/>')

    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="#333"/>')
    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="#333"/>')
    parts.append(f'<text x="{(px0 + px1) // 2}" y="{HEIGHT - 16}" text-anchor="middle">'
                 f'{_esc(spec.x_label)}</text>')
    parts.append(f'<text x="20" y="{(py0 + py1) // 2}" text-anchor="middle" '
                 f'transform="rotate(-90 20 {(py0 + py1) // 2})">'
                 f'{_esc(spec.y_label)}</text>')

    for i, s in enumerate(spec.series):
        color = PALETTE[i % len(PALETTE)]
        band = " ".join(f"{_coord(sx(x))},{_coord(sy(h))}" for x, h in zip(s.x, s.high))
        band += " " + " ".join(f"{_coord(sx(x))},{_coord(sy(l))}"
                               for x, l in zip(reversed(s.x), reversed(s.low)))
        parts.append(f'<polygon points="{band}" fill="{color}" '
                     'fill-opacity="0.25" stroke="none"/>')
        line = " ".join(f"{_coord(sx(x))},{_coord(sy(e))}" for x, e in zip(s.x, s.estimate))
        parts.append(f'<polyline points="{line}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')

    if len(spec.series) > 1:
        ly = MARGIN_TOP + 6
        for i, s in enumerate(spec.series):
            color = PALETTE[i % len(PALETTE)]
            parts.append(f'<line x1="{px1 - 150}" y1="{ly + 14 * i}" x2="{px1 - 126}" '
                         f'y2="{ly + 14 * i}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{px1 - 120}" y="{ly + 14 * i + 5}" font-size="12">'
                         f'{_esc(s.name)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# the markup characters as entities, and each character XML 1.0 cannot carry,
# not even as a reference (the C0 controls but tab, line feed and carriage
# return; U+FFFE and U+FFFF), as U+FFFD
_ESCAPES = {**{c: "\ufffd" for c in (*range(0x20), 0xFFFE, 0xFFFF) if c not in (9, 10, 13)},
            ord("&"): "&amp;", ord("<"): "&lt;", ord(">"): "&gt;", ord('"'): "&quot;"}


def _esc(text: str) -> str:
    return text.translate(_ESCAPES)
