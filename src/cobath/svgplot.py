"""Static SVG line plots with byte-deterministic output.

No plotting toolkit: the figure is assembled as a string with fixed
number formatting, so identical inputs always produce identical bytes.
Non-finite samples split the polyline rather than being interpolated.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["emit_svg"]

WIDTH = 800
HEIGHT = 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 50

TICK_TARGET = 6  # about this many ticks per axis

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _tick_step(lo: float, hi: float, target: int) -> float | None:
    """The 1-2-5 step giving about ``target`` ticks on [lo, hi].

    None when the range is empty or narrower than float resolution.  A step
    of at least 4 ulps of the endpoints is what keeps ``v += step`` in the
    tick loop advancing up to ``hi + 1.5 * step``.
    """
    if hi <= lo:
        return None
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    if step < 4 * math.ulp(max(abs(lo), abs(hi))):
        return None
    return step


def _nice_ticks(lo: float, hi: float, target: int = TICK_TARGET) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return []
    step = _tick_step(lo, hi, target)
    if step is None:
        # a flat range (or one a few ulps wide) is ticked as [lo, lo + 1]
        hi = lo + 1.0
        step = _tick_step(lo, hi, target)
        if step is None:
            raise ValueError(f"axis range at {lo!r} is below float resolution")
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 0.5 * step:
        ticks.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return ticks


def _fmt(v: float) -> str:
    return format(v, ".3f")


def _tick_label(v: float) -> str:
    return format(v, "g")


def emit_svg(
    t: np.ndarray,
    curves: list[tuple[str, np.ndarray]],
    title: str = "",
    xlabel: str = "t",
    ylabel: str = "",
) -> str:
    """Render labelled time series as a static SVG document string."""
    t = np.asarray(t, dtype=float)
    if t.size == 0 or not curves:
        raise ValueError("nothing to plot: empty series")
    for label, y in curves:
        if np.asarray(y).shape != t.shape:
            raise ValueError(f"curve {label!r} length does not match the time axis")

    finite_vals = np.concatenate(
        [np.asarray(y, dtype=float)[np.isfinite(np.asarray(y, dtype=float))] for _, y in curves]
    )
    if finite_vals.size == 0:
        raise ValueError("nothing to plot: no finite samples")
    x_lo, x_hi = float(t[0]), float(t[-1])
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = float(np.min(finite_vals)), float(np.max(finite_vals))
    if _tick_step(y_lo, y_hi, TICK_TARGET) is None:  # flat, or flat to within float resolution
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]

    for xv in _nice_ticks(x_lo, x_hi):
        if xv < x_lo - 1e-12 or xv > x_hi + 1e-12:
            continue
        px = _fmt(sx(xv))
        parts.append(
            f'<line x1="{px}" y1="{MARGIN_T + plot_h}" x2="{px}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px}" y="{MARGIN_T + plot_h + 20}" font-size="12" '
            f'text-anchor="middle">{_tick_label(xv)}</text>'
        )
    for yv in _nice_ticks(y_lo, y_hi):
        if yv < y_lo - 1e-12 or yv > y_hi + 1e-12:
            continue
        py = _fmt(sy(yv))
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py}" x2="{MARGIN_L}" y2="{py}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py}" font-size="12" text-anchor="end" '
            f'dominant-baseline="middle">{_tick_label(yv)}</text>'
        )

    for idx, (label, y) in enumerate(curves):
        y = np.asarray(y, dtype=float)
        color = PALETTE[idx % len(PALETTE)]
        xy = np.column_stack([sx(t), sy(y)])
        # each finite run starts and ends where isfinite flips
        edges = np.flatnonzero(np.diff(np.concatenate(([False], np.isfinite(y), [False]))))
        for a, b in zip(edges[::2], edges[1::2]):
            values = tuple(xy[a:b].ravel().tolist())
            if b - a == 1:
                parts.append(f'<circle cx="%.3f" cy="%.3f" r="1.5" fill="{color}"/>' % values)
            else:
                points = " ".join(["%.3f,%.3f"] * (b - a)) % values
                parts.append(
                    f'<polyline points="{points}" fill="none" stroke="{color}" '
                    'stroke-width="1.5"/>'
                )
        ly = MARGIN_T + 16 + 18 * idx
        lx = WIDTH - MARGIN_R + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 20}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 26}" y="{ly}" font-size="12">{_escape(label)}</text>')

    if title:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="24" font-size="15" '
            f'text-anchor="middle">{_escape(title)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{_escape(xlabel)}</text>'
    )
    if ylabel:
        parts.append(
            f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{_escape(ylabel)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
