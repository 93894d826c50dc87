"""The SVG writer that ``cobath.svgplot.emit_svg`` replaced.

It formats every point of every curve through ``"%.3f,%.3f"``, so the
shared time axis is formatted once per curve.  The current writer formats
each x once per plot and must produce the same document byte for byte;
``tests/test_cli.py`` compares the two.
"""

import numpy as np

from cobath.svgplot import (
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    PALETTE,
    TICK_TARGET,
    WIDTH,
    _escape,
    _fmt,
    _nice_ticks,
    _tick_label,
    _tick_step,
)


def reference_emit_svg(
    t: np.ndarray,
    curves: list[tuple[str, np.ndarray]],
    title: str = "",
    xlabel: str = "t",
    ylabel: str = "",
) -> str:
    """``emit_svg`` as it was: same arguments, same document."""
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

